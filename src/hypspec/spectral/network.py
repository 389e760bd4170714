"""Mass/conductance network surrogate for the surface spectral gap.

The thick components of a decomposition become nodes carrying their
hyperbolic area as mass; each thin collar becomes an edge whose
conductance is the exact minimum of the crossing energy over radial
profiles with unit wall-to-wall gap:

    minimize  int f'(rho)^2 * l cosh(rho) drho   over f(-w)=0, f(w)=1
    =>        (cosh * f')' = 0,  f' = C sech,  C = 1/(2 gd(w))
    =>        minimum = l / (2 gd(w))  =: conductance(l, w).

Node masses count 2 pi per pair of pants.  Each thick piece gives up
half of every incident collar and receives that half back as network
mass, so the halves cancel and the masses add up to the total surface
area 4 pi (g - 1) exactly.  Collars whose modified width clamps to
zero do not exist geometrically: their edges are contracted (treated
as thick).  Self-loop collars stay in the edge list but cannot carry
current between distinct nodes.

lambda_1 of the surrogate is the smallest nonzero eigenvalue of
L x = lambda M x with L the weighted Laplacian and M the diagonal
mass matrix.  It is a model estimate for the surface gap, not the
surface eigenvalue itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..collars import gudermannian, max_half_width, modified_half_width
from ..surfaces import PantsSurface, _union_find
from ..thickthin import ThickThinDecomposition

if TYPE_CHECKING:  # the cut search is loaded only by the commands that cut
    from ..cuts import Multicut

PANTS_MASS = 2.0 * math.pi
DENSE_NODE_LIMIT = 512


class NetworkBuildError(ValueError):
    """Decomposition admits no two-sided thin network."""


class DisconnectedNetworkError(ValueError):
    """The network surrogate has no spectral gap (graph not connected)."""


def collar_conductance(length: float, half_width: float) -> float:
    """Minimal crossing energy l / (2 gd(w)) per unit squared gap; -> l/pi as w grows."""
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    gd = gudermannian(half_width)
    if gd == 0.0:  # w/2 rounds to 0 for the smallest subnormal w
        raise ValueError(f"half_width {half_width} is too small: gd(w) underflows to 0")
    conductance = length / (2.0 * gd)
    if not math.isfinite(conductance):  # gd(w) is subnormal past l ~ 1407.9
        raise ValueError(f"conductance is not finite at length {length}, half_width {half_width}")
    return conductance


@dataclass(frozen=True)
class NetworkEdge:
    """One thin collar as a network edge between node indices a and b."""

    label: str
    a: int
    b: int
    conductance: float


@dataclass(frozen=True)
class NetworkModel:
    """Weighted-graph surrogate: nodes with masses, collar edges with conductances."""

    genus: int
    node_pants: tuple[tuple[str, ...], ...]
    masses: tuple[float, ...]
    edges: tuple[NetworkEdge, ...]

    def __post_init__(self):
        n = len(self.masses)
        for i, m in enumerate(self.masses):
            if not (math.isfinite(m) and m > 0.0):
                raise ValueError(f"mass of node {i} must be positive and finite, got {m}")
        for e in self.edges:
            if not (math.isfinite(e.conductance) and e.conductance > 0.0):
                raise ValueError(
                    f"conductance of edge {e.label!r} must be positive and finite, "
                    f"got {e.conductance}"
                )
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise ValueError(f"edge {e.label!r} joins nodes {e.a}, {e.b} outside 0..{n - 1}")

    @property
    def n_nodes(self) -> int:
        return len(self.masses)

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def laplacian(self) -> np.ndarray:
        """Weighted Laplacian; self-loops add nothing.

        One loop over the edges in order: each edge adds its conductance
        at (a, a) and (b, b) and takes it away at (a, b) and (b, a).
        """
        lap = np.zeros((self.n_nodes, self.n_nodes))
        for e in self.edges:
            if e.a != e.b:
                lap[e.a, e.a] += e.conductance
                lap[e.b, e.b] += e.conductance
                lap[e.a, e.b] -= e.conductance
                lap[e.b, e.a] -= e.conductance
        return lap

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "nodes": [
                {"pants": list(p), "mass": m}
                for p, m in zip(self.node_pants, self.masses)
            ],
            "edges": [
                {"label": e.label, "a": e.a, "b": e.b, "conductance": e.conductance}
                for e in self.edges
            ],
        }


def build_network(decomposition: ThickThinDecomposition) -> NetworkModel:
    """Quotient the thick components into nodes and the thin collars into edges.

    Node mass is 2 pi per pants, which is exactly the component's thick
    area plus half of each incident collar (the ceded halves return).
    Zero-width collars contract their endpoints into one node, so the
    nodes are the components of the surface with the positive-width
    collars removed, ordered by their smallest pants id.  Each distinct
    collar's conductance is computed once.  Raises
    :class:`NetworkBuildError` when fewer than two nodes remain or no
    thin collar survives, since no two-sided surrogate exists then.
    """
    surface = decomposition.surface
    wide = decomposition.wide_collars
    cut = {tc.label for tc in wide}
    nodes = surface._graph.parts(
        k for k, e in enumerate(surface.edges) if e.label not in cut
    )
    if len(nodes) < 2 or not wide:
        raise NetworkBuildError(
            "no thin separating system; use rayleigh_upper on an explicit cut instead"
        )
    node_of = {v: i for i, node in enumerate(nodes) for v in node}
    node_pants = tuple(tuple(sorted(node)) for node in nodes)
    conductance: dict[tuple[float, float], float] = {}
    edges = []
    for tc in wide:
        a = node_of[tc.endpoints[0]]
        b = node_of[tc.endpoints[1]]
        shape = (tc.core_length, tc.half_width)
        c = conductance.get(shape)
        if c is None:
            c = conductance[shape] = collar_conductance(*shape)
        edges.append(NetworkEdge(label=tc.label, a=min(a, b), b=max(a, b), conductance=c))
    return NetworkModel(
        genus=surface.genus,
        node_pants=node_pants,
        masses=tuple(PANTS_MASS * len(p) for p in node_pants),
        edges=tuple(edges),
    )


def network_lambda1(model: NetworkModel) -> float:
    """Smallest nonzero eigenvalue of L x = lambda M x (dense symmetric solve)."""
    n = model.n_nodes
    if n < 2:
        raise ValueError("network surrogate needs at least 2 nodes")
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"dense eigensolve capped at {DENSE_NODE_LIMIT} nodes, got {n}")
    if len(set(_union_find(n, [(e.a, e.b) for e in model.edges]))) > 1:
        raise DisconnectedNetworkError("network surrogate is disconnected")
    inv_sqrt_m = 1.0 / np.sqrt(np.asarray(model.masses))
    sym = model.laplacian() * inv_sqrt_m[:, None] * inv_sqrt_m[None, :]
    eigenvalues = np.linalg.eigvalsh(sym)
    return float(eigenvalues[1])


def _bipartition_sides(
    surface: PantsSurface, cut: Multicut
) -> tuple[frozenset[str], frozenset[str]]:
    removed = set(cut.edge_labels)
    groups = surface._graph.parts(
        k for k, e in enumerate(surface.edges) if e.label not in removed
    )
    if len(groups) != 2:
        raise ValueError(
            f"cut must separate the surface into exactly 2 components, got {len(groups)}"
        )
    return groups[0], groups[1]


def rayleigh_upper_bound(surface: PantsSurface, cut: Multicut) -> float:
    """Rayleigh quotient of the two-level test function adapted to ``cut``.

    The function takes constant values +A and -B on the two sides
    (mass-weighted mean zero) and crosses each cut collar by the
    energy-minimizing radial profile, so each crossing edge spends
    conductance * (A+B)^2.  Optimizing A, B gives the closed form

        (sum of crossing conductances) * (1/m1 + 1/m2),

    with side masses 2 pi per pants.  Crossing widths use the modified
    half-width when positive, else the maximal one.  The value is a
    rigorous upper bound for the network surrogate built from the same
    collars and a model estimate for the surface gap.
    """
    side_a, side_b = _bipartition_sides(surface, cut)
    by_label = {e.label: e for e in surface.edges}
    conductances = []
    for label in sorted(cut.edge_labels):
        e = by_label[label]
        crosses = (e.a in side_a) != (e.b in side_a)
        if not crosses:
            continue
        w = modified_half_width(e.length)
        if w == 0.0:
            w = max_half_width(e.length)
        conductances.append(collar_conductance(e.length, w))
    try:
        total_conductance = math.fsum(conductances)
    except OverflowError:  # each conductance is finite, their sum is not
        raise ValueError(
            f"the sum of the cut's {len(conductances)} crossing conductances overflows"
        ) from None
    m1 = PANTS_MASS * len(side_a)
    m2 = PANTS_MASS * len(side_b)
    return total_conductance * (1.0 / m1 + 1.0 / m2)
