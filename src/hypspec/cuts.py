"""Minimal separating multicurves restricted to pants curves.

L_i of a surface is the least total length of disjoint simple closed
geodesics cutting it into at least i+1 pieces.  Restricted to pants
curves this is a minimum-weight edge-subset problem on the dual
multigraph: find the cheapest edge set whose removal leaves >= i+1
connected components.

``min_separating_length`` runs one search per problem.  It solves
i = 1 exactly as a global minimum edge cut in polynomial time: every
edge that outweighs the cheapest single-pants star is contracted, since
no minimum cut holds it (Padberg & Rinaldi, Math. Programming 47,
1990), and Stoer-Wagner runs once on what is left, so the optimum and
its tie-break are unchanged (see ``_min_cut_global``).  Every i >= 2
runs a best-first branch-and-bound under a node budget.  Both compare
the exact integer key sums of ``_cut_keys``: ties are exact ties of the
summed lengths and break toward the lexicographically smallest label
tuple.  ``bers_upper_bound`` gives the classical existence bound
78 i (g-1).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .surfaces import PantsSurface, _union_find

# Heap pushes allowed to one branch-and-bound search, which also caps the
# heap's length: about 37x the 32 768 pushes of the hardest search in the test
# suite (the golden genus-6 surface random-g6-s4-short at i = 9, which
# pushes all 2^15 subsets).  A search on m curves pushes at most 2^m nodes,
# so every surface of genus <= 7 (m <= 18) stays under it.
BNB_NODE_BUDGET = 1_200_000


@dataclass(frozen=True)
class Multicut:
    """An edge set, its canonical total length, and the component count after removal."""

    edge_labels: tuple[str, ...]
    total_length: float
    component_count: int


def _canonical_length(surface: PantsSurface, labels) -> float:
    by_label = {e.label: e.length for e in surface.edges}
    return math.fsum(by_label[l] for l in labels)


def component_count_after_removal(surface: PantsSurface, labels) -> int:
    """Connected components of the dual graph with the labeled edges removed."""
    removed = set(labels)
    kept = (k for k, e in enumerate(surface.edges) if e.label not in removed)
    return len(set(surface._graph.roots(kept)))


def make_multicut(surface: PantsSurface, labels) -> Multicut:
    """Multicut record for an explicit edge set (length and components computed).

    An unknown label raises KeyError and a repeated one ValueError.
    """
    labels = tuple(sorted(labels))
    known = {e.label for e in surface.edges}
    unknown = [l for l in labels if l not in known]
    if unknown:
        raise KeyError(f"unknown edge labels: {unknown}")
    repeated = sorted({a for a, b in zip(labels, labels[1:]) if a == b})
    if repeated:
        raise ValueError(f"repeated edge labels: {repeated}")
    return Multicut(
        edge_labels=labels,
        total_length=_canonical_length(surface, labels),
        component_count=component_count_after_removal(surface, labels),
    )


def _validate_i(genus: int, i: int) -> None:
    if not 1 <= i <= 2 * genus - 3:
        raise ValueError(f"i must satisfy 1 <= i <= 2g-3 = {2 * genus - 3}, got {i}")


# ===================================================================
# global minimum cut (i = 1)
# ===================================================================

def _cut_keys(edges) -> list[int]:
    """Exact integer keys whose sums order edge sets as the contract does.

    ``edges`` are in label order, so edge r has rank r of m.  Each length
    is a dyadic rational p/q; over the common denominator D it is the
    integer n_r = p D / q >= 1.  The key of edge r is
    k_r = n_r 2^m - 2^(m-1-r) > 0, so a set S sums to
    K(S) = 2^m N(S) - B(S) with N(S) = D * (exact total length) and
    B(S) = sum of 2^(m-1-r) over S, where 0 < B(S) < 2^m for S nonempty.

    If N(S) < N(T) then K(T) >= 2^m N(S) + 2^m - B(T) > 2^m N(S) >= K(S).
    If N(S) = N(T) and S != T, neither contains the other (lengths are
    positive), so at the first position where the sorted rank tuples
    differ one set has the smaller rank s, which the other lacks, and
    both agree on every rank below s.  Its bit 2^(m-1-s) outweighs all
    later ranks together, so that set has the larger B, the
    smaller K and the lexicographically smaller label tuple.  Hence
    K(S) < K(T) exactly when (total length, label tuple) of S is smaller,
    and distinct edge sets have distinct key sums.
    """
    m = len(edges)
    ratios = [e.length.as_integer_ratio() for e in edges]
    denom = max(q for _, q in ratios)
    return [
        (p * (denom // q) << m) - (1 << (m - 1 - r))
        for r, (p, q) in enumerate(ratios)
    ]


def _stoer_wagner(weighted) -> tuple[int, set[int]]:
    """Minimum cut value of a connected loop-free multigraph and one side of it.

    ``weighted`` lists the edges as (a, b, key) with a != b.  Each phase
    grows a maximum-adjacency order with a lazy heap; the last vertex t
    added gives the cut of the phase, its key weight to the rest, and is
    then merged into the one before it (Stoer & Wagner, JACM 1997).
    """
    adj: dict[int, dict[int, int]] = {}
    for a, b, key in weighted:
        adj.setdefault(a, {})
        adj.setdefault(b, {})
        adj[a][b] = adj[a].get(b, 0) + key
        adj[b][a] = adj[b].get(a, 0) + key
    members = {v: [v] for v in adj}
    best_value: int | None = None
    best_side: set[int] = set()
    while len(adj) > 1:
        weight = dict.fromkeys(adj, 0)
        start = next(iter(adj))
        heap = [(0, start)]
        added: set[int] = set()
        s = t = start
        while len(added) < len(adj):
            neg, v = heapq.heappop(heap)
            if v in added or -neg != weight[v]:
                continue
            added.add(v)
            s, t = t, v
            for x, w in adj[v].items():
                if x not in added:
                    weight[x] += w
                    heapq.heappush(heap, (-weight[x], x))
        if best_value is None or weight[t] < best_value:
            best_value = weight[t]
            best_side = set(members[t])
        for x, w in adj.pop(t).items():
            del adj[x][t]
            if x != s:
                adj[s][x] = adj[s].get(x, 0) + w
                adj[x][s] = adj[x].get(s, 0) + w
        members[s] += members.pop(t)
    return best_value, best_side


def _min_cut_global(surface: PantsSurface) -> Multicut:
    """Exact minimum separating set for i = 1 in polynomial time.

    With K(S) the key sum (:func:`_cut_keys`) of an edge set S, the answer
    is the cut O of the dual graph with the least K(O); self-loops are
    never cut.  The star of a pants is the set of its non-loop edges, and
    U is the least key sum of a star.  Every edge whose key exceeds U is
    contracted (the test of Padberg & Rinaldi, Math. Programming 47,
    1990), and Stoer-Wagner runs once on what is left.  Proof that the
    answer and its tie-break do not change:

    1. A star is a cut, so K(O) <= U.
    2. Keys are positive, so every edge of O has key at most K(O) <= U,
       and none is contracted.
    3. Contraction keeps exactly the cuts that avoid the contracted
       edges, each with its own crossing edges and key sum.  So O is a
       cut of the contracted graph, and its least one.
    4. Distinct edge sets have distinct key sums, so O is the unique
       minimum, and the tie-break is the key order as before.
    5. Every non-loop edge at the pants of the cheapest star has key at
       most U, so no contraction joins that pants to another: at least
       two vertices remain.
    """
    ends = surface._graph.ends
    keys = _cut_keys(surface.edges)
    star = [0] * len(surface._graph.vertices)
    for (a, b), key in zip(ends, keys):
        if a != b:
            star[a] += key
            star[b] += key
    bound = min(star)
    root = _union_find(len(star), [ends[k] for k, key in enumerate(keys) if key > bound])
    kept = [(k, root[a], root[b]) for k, (a, b) in enumerate(ends) if root[a] != root[b]]
    _, side = _stoer_wagner([(a, b, keys[k]) for k, a, b in kept])
    return make_multicut(
        surface, [surface.edges[k].label for k, a, b in kept if (a in side) != (b in side)]
    )


# ===================================================================
# best-first branch and bound
# ===================================================================

def _min_cut_branch_and_bound(surface: PantsSurface, i: int) -> Multicut:
    """Best-first search over canonical subsets.

    Children extend a subset only with higher edge indices, so each
    subset is pushed at most once, and a search on m edges pushes at
    most 2^m nodes, the root included; the heap pops by key sum
    (:func:`_cut_keys`), so the first separating pop is the unique
    optimum.  Pops of fewer than i curves are not tested: each curve
    adds at most one piece.  A greedy incumbent caps queue growth:
    children whose key sum exceeds its own are pruned.  A search that
    would push more than ``BNB_NODE_BUDGET`` nodes, counting the root,
    raises a ValueError instead of running on, so the heap never holds
    more than that many.
    """
    keys = _cut_keys(surface.edges)
    graph = surface._graph
    m = len(keys)
    target = i + 1

    def separates(cut) -> bool:
        return len(set(graph.roots(k for k in range(m) if k not in cut))) >= target

    # greedy incumbent: cheapest-first accumulation until separating
    acc: list[int] = []
    for j in sorted(range(m), key=keys.__getitem__):
        acc.append(j)
        if separates(acc):
            break
    incumbent = sum(keys[k] for k in acc)

    heap: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    pushes = 1
    while heap:
        total, idxs = heapq.heappop(heap)
        if len(idxs) >= i and separates(idxs):
            return make_multicut(surface, [surface.edges[k].label for k in idxs])
        start = idxs[-1] + 1 if idxs else 0
        for j in range(start, m):
            child_total = total + keys[j]
            if child_total > incumbent:
                continue
            if pushes == BNB_NODE_BUDGET:
                raise ValueError(
                    f"branch-and-bound exceeded its budget of {BNB_NODE_BUDGET} nodes "
                    f"(genus {surface.genus}, i={i}, {m} edges)"
                )
            pushes += 1
            heapq.heappush(heap, (child_total, idxs + (j,)))
    raise ValueError(f"no edge subset separates the surface into {target} components")


def min_separating_length(surface: PantsSurface, i: int) -> Multicut:
    """Cheapest pants-curve set splitting the surface into >= i+1 pieces.

    Ties are exact ties of the summed lengths and break toward the
    lexicographically smallest label tuple.  i = 1 is the exact global
    minimum cut (star contraction, then one Stoer-Wagner run); every
    i >= 2 runs branch-and-bound, which raises a ValueError past
    ``BNB_NODE_BUDGET`` nodes.  It pushes at most 2^m nodes on m curves,
    so no surface of at most 20 curves (genus <= 7) can reach the budget.
    """
    _validate_i(surface.genus, i)
    if i == 1:
        return _min_cut_global(surface)
    return _min_cut_branch_and_bound(surface, i)


# ===================================================================
# constructive bounds
# ===================================================================

def bers_upper_bound(i: int, genus: int) -> float:
    """Existence bound 78 i (g-1) on L_i from short pants decompositions."""
    if genus < 2:
        raise ValueError(f"genus must be >= 2, got {genus}")
    _validate_i(genus, i)
    return 78.0 * i * (genus - 1)
