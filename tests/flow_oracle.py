"""The i = 1 minimum-cut key sum by Edmonds-Karp max flow.

A global minimum cut separates pants 0 from some other pants, so its
key sum is the least maximum flow from pants 0 to any other pants (max
flow equals min cut, Ford & Fulkerson 1956).  Every curve that is not a
self-loop carries its key of :func:`hypspec.cuts._cut_keys` as an exact
integer capacity both ways, and each flow augments along shortest paths
found by breadth-first search (Edmonds & Karp, JACM 1972).  This shares
no code with the library's contraction and Stoer-Wagner search, and
costs one flow per pants: keep its surfaces at a few hundred pants.
"""
from collections import deque

from hypspec.cuts import _cut_keys
from hypspec.surfaces import PantsSurface


def _max_flow(capacity: dict, source, sink) -> int:
    residual = {u: dict(out) for u, out in capacity.items()}
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while sink not in parent:
            if not queue:
                return flow
            u = queue.popleft()
            for v, c in residual[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def min_cut_key_sum(surface: PantsSurface) -> int:
    """The least key sum of an edge set whose removal disconnects ``surface``."""
    capacity = {v: {} for v in surface.vertices}
    for e, key in zip(surface.edges, _cut_keys(surface.edges)):
        if e.a != e.b:
            capacity[e.a][e.b] = capacity[e.a].get(e.b, 0) + key
            capacity[e.b][e.a] = capacity[e.b].get(e.a, 0) + key
    source, *sinks = surface.vertices
    return min(_max_flow(capacity, source, sink) for sink in sinks)
