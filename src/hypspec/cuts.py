"""Minimal separating multicurves restricted to pants curves.

L_i of a surface is the least total length of disjoint simple closed
geodesics cutting it into at least i+1 pieces.  Restricted to pants
curves this is a minimum-weight edge-subset problem on the dual
multigraph: find the cheapest edge set whose removal leaves >= i+1
connected components.

``min_separating_length`` runs one search per problem.  It solves
i = 1 exactly as a global minimum edge cut (bridges, then Stoer-Wagner
on each 2-edge-connected block) in polynomial time.  Before
Stoer-Wagner runs, every block edge that outweighs the block's cheapest
single-pants star, or the best cut found so far, is contracted: no
minimum cut holds it (Padberg & Rinaldi, Math. Programming 47, 1990),
so the optimum and its tie-break are unchanged (see
``_min_cut_global``).  Every i >= 2 runs a best-first branch-and-bound
under a node budget.  Both compare the exact integer key sums of
``_cut_keys``: ties are exact ties of the summed lengths and break
toward the lexicographically smallest label tuple.  ``bers_upper_bound``
gives the classical existence bound 78 i (g-1).
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


def _bridges_and_blocks(n: int, ends: tuple[tuple[int, int], ...]) -> tuple[list[int], list[int]]:
    """Bridges of a connected multigraph and the block of every vertex.

    Iterative Tarjan.  The DFS skips only the edge it arrived by, not
    every edge to the parent, so of two parallel edges neither is a
    bridge.  A vertex roots a 2-edge-connected block when it is the DFS
    root or its tree edge is a bridge; the block is that vertex and
    every vertex discovered after it that no deeper block has claimed.
    Blocks are named by their root vertex.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(ends):
        adj[a].append((b, k))
        adj[b].append((a, k))
    disc = [-1] * n
    low = [0] * n
    block = [0] * n
    disc[0] = 0
    clock = 1
    bridges = []
    unclaimed = [0]
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, via, it = stack[-1]
        for w, k in it:
            if k == via:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                unclaimed.append(w)
                stack.append((w, k, iter(adj[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] <= disc[u]:
                    continue
                bridges.append(via)
            while True:
                x = unclaimed.pop()
                block[x] = v
                if x == v:
                    break
    return bridges, block


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

    With the positive keys of :func:`_cut_keys` the optimum is an
    inclusion-minimal disconnecting set, so it is either a single bridge
    or lies inside one 2-edge-connected block: the blocks hang off the
    bridges as a tree, so the part of a cut inside any block it splits
    already disconnects the surface.  Conversely every cut of a block
    disconnects the surface.  So the answer is the lowest-key bridge or
    the lowest Stoer-Wagner cut over the blocks, self-loops never being
    cut.  Among single edges the key order is the (length, label) order,
    so bridges need no keys.

    Every cut of a 2-edge-connected block has at least two edges, so a
    block is skipped when the floating-point sum of its two shortest
    curves exceeds the incumbent's correctly rounded length: rounding is
    monotone, so the exact sums compare the same way.  The keys are only
    built when some block is not skipped.

    Before Stoer-Wagner runs on a block, every block edge whose key
    exceeds the bound U is contracted (the test of Padberg & Rinaldi,
    Math. Programming 47, 1990).  U is the smaller of the incumbent's
    key sum, when there is an incumbent, and the cheapest star of the
    block: the key sum of the block edges at one pants.  Proof that the
    answer and its tie-break do not change, with K(S) the key sum of an
    edge set S and O the block's optimum:

    1. The star of a pants is a cut of the block, so K(O) is at most
       the cheapest star.
    2. O changes the answer only if there is no incumbent or K(O) is
       below the incumbent's sum; either way K(O) <= U.  Keys are
       positive, so every edge of O has key at most K(O) <= U: none is
       contracted, and O is a cut of the contracted block.
    3. Contraction keeps exactly the cuts of the block that avoid the
       contracted edges, each with its own crossing edges and key sum.
       So in the case of (2) the contracted minimum is O, the unique
       minimum because distinct edge sets have distinct key sums, and
       the tie-break is the key order as before.  Otherwise every cut
       of the block, the contracted minimum among them, sums to more
       than the incumbent, which stays.

    By (2), a block whose edges are all contracted cannot change the
    answer, so it is skipped.
    """
    ends = surface._graph.ends
    lengths = [e.length for e in surface.edges]
    n = len(surface._graph.vertices)
    bridges, block_of = _bridges_and_blocks(n, ends)

    blocks: dict[int, list[int]] = {}
    for k, (a, b) in enumerate(ends):
        if a != b and block_of[a] == block_of[b]:
            blocks.setdefault(block_of[a], []).append(k)

    best_cut = [min(bridges, key=lambda k: (lengths[k], k))] if bridges else []
    best_length = lengths[best_cut[0]] if bridges else math.inf
    keys: list[int] | None = None
    for block in blocks.values():
        shortest, second = sorted([lengths[k] for k in block])[:2]
        if shortest + second > best_length:
            continue
        if keys is None:
            keys = _cut_keys(surface.edges)
        star: dict[int, int] = {}
        for k in block:
            a, b = ends[k]
            star[a] = star.get(a, 0) + keys[k]
            star[b] = star.get(b, 0) + keys[k]
        bound = min(star.values())
        if best_cut:
            bound = min(bound, sum(keys[k] for k in best_cut))
        root = _union_find(n, [ends[k] for k in block if keys[k] > bound])
        weighted = [
            (root[a], root[b], keys[k])
            for k in block
            for a, b in (ends[k],)
            if root[a] != root[b]
        ]
        if not weighted:
            continue
        value, side = _stoer_wagner(weighted)
        if not best_cut or value < sum(keys[k] for k in best_cut):
            best_cut = [
                k for k in block if (root[ends[k][0]] in side) != (root[ends[k][1]] in side)
            ]
            best_length = math.fsum(lengths[k] for k in best_cut)
    return make_multicut(surface, [surface.edges[k].label for k in best_cut])


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
    minimum cut (bridges, then Stoer-Wagner); every i >= 2 runs
    branch-and-bound, which raises a ValueError past ``BNB_NODE_BUDGET``
    nodes.  It pushes at most 2^m nodes on m curves, so no surface of
    at most 20 curves (genus <= 7) can reach the budget.
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
