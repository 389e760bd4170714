"""Spectral estimates: collar ODE modes, grid-function energies, network surrogate, reports.

Like the top-level package, this one resolves each public name on
first access by importing the submodule that defines it (PEP 562).
"""
from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "collar_ode": ("ExtrapolationWarning", "collar_dirichlet_lambda1_batch"),
    "corpus": ("crossing_corpus", "cutoff_corpus"),
    "gridfun": (
        "CollarGridFunction", "CrossingCheck", "CutoffCheck", "HypothesisNotMet",
        "crossing_energy_check", "cutoff_extension_check", "dirichlet_energy",
        "l2_norm_sq",
    ),
    "network": (
        "DisconnectedNetworkError", "NetworkBuildError", "NetworkEdge", "NetworkModel",
        "build_network", "collar_conductance", "network_lambda1", "rayleigh_upper_bound",
    ),
    "report": (
        "ScalingRow", "SpectralReport", "assemble_report",
        "cheeger_lower_bound", "scaling_rows_to_csv", "scaling_study",
    ),
})
