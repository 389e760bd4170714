"""Spectral estimates: collar ODE modes, grid-function energies, network surrogate, reports."""
from .collar_ode import (
    ExtrapolationWarning,
    collar_dirichlet_lambda1_batch,
)
from .corpus import crossing_corpus, cutoff_corpus
from .gridfun import (
    CollarGridFunction,
    CrossingCheck,
    CutoffCheck,
    HypothesisNotMet,
    crossing_energy_check,
    cutoff_extension_check,
    dirichlet_energy,
    l2_norm_sq,
)
from .network import (
    DisconnectedNetworkError,
    NetworkBuildError,
    NetworkEdge,
    NetworkModel,
    build_network,
    collar_conductance,
    network_lambda1,
    rayleigh_upper_bound,
)
from .report import (
    CollarMode,
    ScalingRow,
    SpectralReport,
    assemble_report,
    cheeger_lower_bound,
    scaling_rows_to_csv,
    scaling_study,
)

__all__ = [
    "ExtrapolationWarning",
    "collar_dirichlet_lambda1_batch",
    "crossing_corpus",
    "cutoff_corpus",
    "CollarGridFunction",
    "CrossingCheck",
    "CutoffCheck",
    "HypothesisNotMet",
    "crossing_energy_check",
    "cutoff_extension_check",
    "dirichlet_energy",
    "l2_norm_sq",
    "DisconnectedNetworkError",
    "NetworkBuildError",
    "NetworkEdge",
    "NetworkModel",
    "build_network",
    "collar_conductance",
    "network_lambda1",
    "rayleigh_upper_bound",
    "CollarMode",
    "ScalingRow",
    "SpectralReport",
    "assemble_report",
    "cheeger_lower_bound",
    "scaling_rows_to_csv",
    "scaling_study",
]
