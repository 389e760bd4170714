"""Desk-scale spectral geometry of genus-g hyperbolic surfaces.

Surfaces are pants decompositions given combinatorially (a trivalent
dual multigraph with a length per curve).  The package computes collar
and thick-thin geometry, shortest separating curve systems, and three
independent estimates of the first Laplace eigenvalue: Ritz upper
bounds on the first Dirichlet eigenvalue of each collar, a
mass/conductance network surrogate, and Rayleigh-quotient upper
bounds — then assembles them into consistency reports and a
genus-scaling study.

Importing the package loads none of its modules.  Each public name
resolves on first access by importing the submodule that defines it
(PEP 562), so ``import hypspec`` is cheap and the first use of a name
pays for its module; the name is looked up in that module on every
access, never copied here, so a patch of the defining module is always
seen.  The submodules that hold these names are imported the same way
when first read as attributes of the package.
"""
import importlib
import sys

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict) -> tuple:
    """PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps each submodule to the public names it defines.  A
    name is fetched from its submodule on every access, and a submodule
    named in ``exports`` is imported when first read as an attribute;
    any other name raises ``AttributeError``.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name in exports:
            return importlib.import_module(f"{package}.{name}")
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{home[name]}"), name)

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__, list(home)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "collars": (
        "collar_volume", "gudermannian", "max_half_width", "modified_half_width",
        "shell_detour_lengths", "shell_volume",
    ),
    "cuts": (
        "Multicut", "bers_upper_bound", "component_count_after_removal",
        "make_multicut", "min_separating_length",
    ),
    "surfaces": (
        "ChainFamilyParams", "Edge", "InvalidSurfaceError", "PantsSurface",
        "build_chain_family", "build_from_description", "chain_central_join_label",
        "chain_join_label", "dump_surface", "load_surface", "surface_to_dict",
        "total_volume",
    ),
    "thickthin": (
        "DEFAULT_EPSILON", "EpsilonChecklist", "InadmissibleEpsilonError",
        "ThickThinDecomposition", "ThinCollar", "decompose", "epsilon_admissible",
    ),
    "spectral": (
        "NetworkModel", "SpectralReport", "assemble_report", "build_network",
        "cheeger_lower_bound", "collar_conductance", "crossing_energy_check",
        "cutoff_extension_check", "dirichlet_energy", "l2_norm_sq", "network_lambda1",
        "rayleigh_upper_bound", "scaling_rows_to_csv", "scaling_study",
    ),
})
