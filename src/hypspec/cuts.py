"""Minimal separating multicurves restricted to pants curves.

L_i of a surface is the least total length of disjoint simple closed
geodesics cutting it into at least i+1 pieces.  Restricted to pants
curves this is a minimum-weight edge-subset problem on the dual
multigraph: find the cheapest edge set whose removal leaves >= i+1
connected components.

``min_separating_length(method="auto")`` solves i = 1 exactly as a
global minimum edge cut (bridges, then Stoer-Wagner on each
2-edge-connected block) in polynomial time.  For i >= 2 it uses an
exhaustive bitmask scan up to 20 edges and a best-first
branch-and-bound beyond, under a node budget.  Ties are exact ties of
the summed lengths and break toward the lexicographically smallest
label tuple.  The two subset searches compare correctly rounded
(``math.fsum``) totals, so they return the same optimum unless two
candidate totals differ by less than one ulp.  ``bers_upper_bound``
gives the classical existence bound 78 i (g-1).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .surfaces import PantsSurface

EXHAUSTIVE_EDGE_LIMIT = 20
# Heap pushes allowed to one branch-and-bound search, which also caps the
# heap's length: 12x the 101 584 pushes of the hardest search in the test
# suite (chain genus 10, i = 5).
BNB_NODE_BUDGET = 1_200_000


@dataclass(frozen=True)
class Multicut:
    """An edge set, its canonical total length, and the component count after removal."""

    edge_labels: tuple[str, ...]
    total_length: float
    component_count: int


def _canonical_length(surface: PantsSurface, labels) -> float:
    by_label = {e.label: e.length for e in surface.edges}
    return math.fsum(by_label[l] for l in sorted(labels))


def component_count_after_removal(surface: PantsSurface, labels) -> int:
    """Connected components of the dual graph with the labeled edges removed."""
    removed = set(labels)
    n = len(surface.vertices)
    index = {v: i for i, v in enumerate(surface.vertices)}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for e in surface.edges:
        if e.label in removed:
            continue
        ra, rb = find(index[e.a]), find(index[e.b])
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def make_multicut(surface: PantsSurface, labels) -> Multicut:
    """Multicut record for an explicit edge set (length and components computed)."""
    labels = tuple(sorted(labels))
    known = {e.label for e in surface.edges}
    unknown = [l for l in labels if l not in known]
    if unknown:
        raise KeyError(f"unknown edge labels: {unknown}")
    return Multicut(
        edge_labels=labels,
        total_length=_canonical_length(surface, labels),
        component_count=component_count_after_removal(surface, labels),
    )


def _validate_i(surface: PantsSurface, i: int) -> None:
    g = surface.genus
    if not 1 <= i <= 2 * g - 3:
        raise ValueError(f"i must satisfy 1 <= i <= 2g-3 = {2 * g - 3}, got {i}")


# ===================================================================
# exhaustive search (small edge counts)
# ===================================================================

def _min_cut_exhaustive(surface: PantsSurface, i: int) -> Multicut:
    edges = sorted(surface.edges, key=lambda e: e.label)
    m = len(edges)
    lengths = [e.length for e in edges]
    best_key: tuple[float, tuple[str, ...]] | None = None
    best_labels: tuple[str, ...] | None = None
    target = i + 1
    for mask in range(1, 1 << m):
        total = math.fsum(lengths[j] for j in range(m) if mask >> j & 1)
        if best_key is not None and total > best_key[0]:
            continue
        labels = tuple(edges[j].label for j in range(m) if mask >> j & 1)
        key = (total, labels)
        if best_key is not None and key >= best_key:
            continue
        if component_count_after_removal(surface, labels) >= target:
            best_key = key
            best_labels = labels
    if best_labels is None:
        raise ValueError(f"no edge subset separates the surface into {target} components")
    return make_multicut(surface, best_labels)


# ===================================================================
# global minimum cut (i = 1)
# ===================================================================

def _cut_keys(edges) -> list[int]:
    """Exact integer keys whose sums order edge sets as the contract does.

    ``edges`` is sorted by label, so edge r has rank r of m.  Each length
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


def _bridges_and_blocks(n: int, ends: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
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


def _stoer_wagner(block: list[int], ends, keys) -> tuple[int, set[int]]:
    """Minimum cut value of a connected loop-free block and one side of it.

    Each phase grows a maximum-adjacency order with a lazy heap; the last
    vertex t added gives the cut of the phase, its key weight to the rest,
    and is then merged into the one before it (Stoer & Wagner, JACM 1997).
    """
    adj: dict[int, dict[int, int]] = {}
    for k in block:
        a, b = ends[k]
        adj.setdefault(a, {})
        adj.setdefault(b, {})
        adj[a][b] = adj[a].get(b, 0) + keys[k]
        adj[b][a] = adj[b].get(a, 0) + keys[k]
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
    """
    edges = sorted(surface.edges, key=lambda e: e.label)
    lengths = [e.length for e in edges]
    index = {v: k for k, v in enumerate(surface.vertices)}
    ends = [(index[e.a], index[e.b]) for e in edges]
    bridges, block_of = _bridges_and_blocks(len(index), ends)

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
            keys = _cut_keys(edges)
        value, side = _stoer_wagner(block, ends, keys)
        if not best_cut or value < sum(keys[k] for k in best_cut):
            best_cut = [k for k in block if (ends[k][0] in side) != (ends[k][1] in side)]
            best_length = math.fsum(lengths[k] for k in best_cut)
    return make_multicut(surface, [edges[k].label for k in best_cut])


# ===================================================================
# best-first branch and bound
# ===================================================================

def _min_cut_branch_and_bound(surface: PantsSurface, i: int) -> Multicut:
    """Best-first search over canonical subsets.

    Children extend a subset only with higher edge indices, so each
    subset is enumerated once; the heap pops by (total length, label
    tuple), hence the first feasible pop is the optimum under the same
    tie-break as the exhaustive search.  A greedy incumbent caps queue
    growth: children strictly longer than it are pruned.  A search that
    would push more than ``BNB_NODE_BUDGET`` nodes, counting the root,
    raises a ValueError instead of running on, so the heap never holds
    more than that many.
    """
    edges = sorted(surface.edges, key=lambda e: e.label)
    m = len(edges)
    lengths = [e.length for e in edges]
    labels_arr = [e.label for e in edges]
    target = i + 1

    # greedy incumbent: cheapest-first accumulation until feasible
    order = sorted(range(m), key=lambda j: (lengths[j], labels_arr[j]))
    acc: list[int] = []
    incumbent_len = math.inf
    for j in order:
        acc.append(j)
        labels = [labels_arr[k] for k in acc]
        if component_count_after_removal(surface, labels) >= target:
            incumbent_len = _canonical_length(surface, labels)
            break

    heap: list[tuple[float, tuple[str, ...], tuple[int, ...]]] = [(0.0, (), ())]
    pushes = 1
    while heap:
        total, labels, idxs = heapq.heappop(heap)
        if labels and component_count_after_removal(surface, labels) >= target:
            return make_multicut(surface, labels)
        start = idxs[-1] + 1 if idxs else 0
        for j in range(start, m):
            child_idxs = idxs + (j,)
            child_total = math.fsum(lengths[k] for k in child_idxs)
            if child_total > incumbent_len:
                continue
            if pushes == BNB_NODE_BUDGET:
                raise ValueError(
                    f"branch-and-bound exceeded its budget of {BNB_NODE_BUDGET} nodes "
                    f"(genus {surface.genus}, i={i}, {m} edges)"
                )
            pushes += 1
            child_labels = tuple(sorted(labels + (labels_arr[j],)))
            heapq.heappush(heap, (child_total, child_labels, child_idxs))
    raise ValueError(f"no edge subset separates the surface into {target} components")


def min_separating_length(
    surface: PantsSurface, i: int, *, method: str = "auto"
) -> Multicut:
    """Cheapest pants-curve set splitting the surface into >= i+1 pieces.

    Ties are exact ties of the summed lengths (for "exhaustive" and
    "bnb", of their correctly rounded totals) and break toward the
    lexicographically smallest label tuple, so the result is independent
    of evaluation order.  ``method`` is "exhaustive", "bnb", or "auto":
    for i = 1 the exact global minimum cut (bridges, then Stoer-Wagner),
    for i >= 2 exhaustive up to 20 edges and branch-and-bound beyond.
    Branch-and-bound raises a ValueError past ``BNB_NODE_BUDGET`` nodes.
    """
    _validate_i(surface, i)
    if method == "auto":
        if i == 1:
            return _min_cut_global(surface)
        method = "exhaustive" if len(surface.edges) <= EXHAUSTIVE_EDGE_LIMIT else "bnb"
    if method == "exhaustive":
        if len(surface.edges) > EXHAUSTIVE_EDGE_LIMIT + 6:
            raise ValueError(
                f"exhaustive search capped at {EXHAUSTIVE_EDGE_LIMIT + 6} edges, "
                f"surface has {len(surface.edges)}"
            )
        return _min_cut_exhaustive(surface, i)
    if method == "bnb":
        return _min_cut_branch_and_bound(surface, i)
    raise ValueError(f"unknown method {method!r}")


# ===================================================================
# constructive bounds
# ===================================================================

def bers_upper_bound(i: int, genus: int) -> float:
    """Existence bound 78 i (g-1) on L_i from short pants decompositions."""
    if genus < 2:
        raise ValueError(f"genus must be >= 2, got {genus}")
    if not 1 <= i <= 2 * genus - 3:
        raise ValueError(f"i must satisfy 1 <= i <= 2g-3 = {2 * genus - 3}, got {i}")
    return 78.0 * i * (genus - 1)
