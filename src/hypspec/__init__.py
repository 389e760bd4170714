"""Desk-scale spectral geometry of genus-g hyperbolic surfaces.

Surfaces are pants decompositions given combinatorially (a trivalent
dual multigraph with a length per curve).  The package computes collar
and thick-thin geometry, shortest separating curve systems, and three
independent estimates of the first Laplace eigenvalue: exact Dirichlet
spectra of collars, a mass/conductance network surrogate, and
Rayleigh-quotient upper bounds — then assembles them into consistency
reports and a genus-scaling study.
"""
from .collars import (
    Collar,
    collar_volume,
    gudermannian,
    max_half_width,
    modified_half_width,
    shell_detour_lengths,
    shell_volume,
)
from .cuts import (
    Multicut,
    bers_upper_bound,
    component_count_after_removal,
    make_multicut,
    min_separating_length,
)
from .surfaces import (
    ChainFamilyParams,
    Edge,
    InvalidSurfaceError,
    PantsSurface,
    build_chain_family,
    build_from_description,
    chain_central_join_label,
    chain_join_label,
    dump_surface,
    load_surface,
    surface_to_dict,
    total_volume,
)
from .thickthin import (
    DEFAULT_EPSILON,
    EpsilonChecklist,
    InadmissibleEpsilonError,
    ThickThinDecomposition,
    ThinCollar,
    decompose,
    epsilon_admissible,
)
from .spectral import (
    NetworkModel,
    SpectralReport,
    assemble_report,
    build_network,
    cheeger_lower_bound,
    collar_conductance,
    crossing_energy_check,
    cutoff_extension_check,
    dirichlet_energy,
    l2_norm_sq,
    network_lambda1,
    rayleigh_upper_bound,
    scaling_rows_to_csv,
    scaling_study,
)

__version__ = "0.1.0"
