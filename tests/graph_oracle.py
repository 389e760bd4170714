"""Dictionary-based oracles for the dual-graph partitions and the network.

These are the constructions the library used before its partitions ran
on one integer union-find: a union-find keyed by vertex names, the
network's nodes built in two stages (thick components first, then the
zero-width collars merging them), a conductance per collar, and a
Laplacian assembled edge by edge.  The library must give the same
values bit for bit.
"""
import numpy as np

from hypspec.spectral.network import (
    PANTS_MASS,
    NetworkBuildError,
    NetworkEdge,
    NetworkModel,
    collar_conductance,
)


def connected_components(vertices, edge_pairs):
    """Components as frozensets, ordered by their smallest vertex."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=lambda s: min(s))


def build_network(decomposition):
    """Thick components, then the zero-width collars merge them into nodes."""
    comp_of = {
        v: i for i, comp in enumerate(decomposition.thick_components) for v in comp
    }
    n_comp = len(decomposition.thick_components)
    message = "no thin separating system; use rayleigh_upper on an explicit cut instead"
    if not decomposition.thin_collars or n_comp < 2:
        raise NetworkBuildError(message)
    nodes = connected_components(
        range(n_comp),
        [
            (comp_of[tc.endpoints[0]], comp_of[tc.endpoints[1]])
            for tc in decomposition.thin_collars
            if tc.half_width == 0.0
        ],
    )
    node_of_comp = {ci: i for i, node in enumerate(nodes) for ci in node}
    members = [[] for _ in nodes]
    for ci, comp in enumerate(decomposition.thick_components):
        members[node_of_comp[ci]].extend(comp)
    node_pants = tuple(tuple(sorted(m)) for m in members)
    edges = []
    for tc in decomposition.thin_collars:
        if tc.half_width == 0.0:
            continue
        a = node_of_comp[comp_of[tc.endpoints[0]]]
        b = node_of_comp[comp_of[tc.endpoints[1]]]
        edges.append(
            NetworkEdge(
                label=tc.label,
                a=min(a, b),
                b=max(a, b),
                conductance=collar_conductance(tc.core_length, tc.half_width),
            )
        )
    if len(node_pants) < 2 or not edges:
        raise NetworkBuildError(message)
    return NetworkModel(
        genus=decomposition.surface.genus,
        node_pants=node_pants,
        masses=tuple(PANTS_MASS * len(p) for p in node_pants),
        edges=tuple(edges),
    )


def laplacian(model):
    """The weighted Laplacian, one edge at a time; self-loops skipped."""
    lap = np.zeros((model.n_nodes, model.n_nodes))
    for e in model.edges:
        if e.a == e.b:
            continue
        lap[e.a, e.a] += e.conductance
        lap[e.b, e.b] += e.conductance
        lap[e.a, e.b] -= e.conductance
        lap[e.b, e.a] -= e.conductance
    return lap
