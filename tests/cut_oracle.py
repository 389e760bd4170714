"""The exhaustive scan the library ran for i >= 2 on up to 20 curves.

``hypspec.cuts`` now runs branch-and-bound for every i >= 2.  This scan
visits every nonempty edge set, so it is the reference that the
agreement and property tests and acceptance criterion 7 compare the
library against.  It costs 2^m component counts at worst for m curves:
keep its surfaces at m <= 18.
"""
from hypspec.cuts import Multicut, _cut_keys, make_multicut
from hypspec.surfaces import PantsSurface


def min_cut_exhaustive(surface: PantsSurface, i: int) -> Multicut:
    """Every nonempty edge set in Gray-code order (Knuth, TAOCP 4A, 7.2.1.1).

    One key of :func:`hypspec.cuts._cut_keys` enters or leaves the
    running sum per step; components are counted only below the best
    separating sum, so the result is the least key sum: the shortest
    set, ties broken toward the smallest label tuple.
    """
    edges = surface.edges
    keys = _cut_keys(edges)
    graph = surface._graph
    m = len(keys)
    target = i + 1
    best_sum = best_mask = None
    mask = total = 0
    for step in range(1, 1 << m):
        j = (step & -step).bit_length() - 1
        mask ^= 1 << j
        total += keys[j] if mask >> j & 1 else -keys[j]
        if best_sum is not None and total >= best_sum:
            continue
        if len(set(graph.roots(k for k in range(m) if not mask >> k & 1))) >= target:
            best_sum, best_mask = total, mask
    if best_mask is None:
        raise ValueError(f"no edge subset separates the surface into {target} components")
    return make_multicut(surface, [e.label for k, e in enumerate(edges) if best_mask >> k & 1])
