"""Seeded random pants surfaces for the benchmark.

A genus-g pants decomposition is a connected trivalent multigraph on
2g-2 vertices.  The configuration model draws one uniformly among
labelled pairings: each pants contributes three half-edges, the 6g-6
half-edges are shuffled and paired off, self-loops and multi-edges are
kept, and disconnected draws are rejected.  A fixed three quarters of
the curves are thin (shorter than 2*epsilon at the default epsilon), the
rest thick, so ``decompose`` both cuts collars and merges pants into
larger thick components.  Fixing the thin count, rather than drawing it,
keeps the number of collar eigenvalue solves per genus the same on every
seed.

Everything here is a pure function of the ``random.Random`` passed in.
"""
from __future__ import annotations

import random

THIN_SHARE = 0.75
THIN_RANGE = (0.01, 0.099)  # below 2 * DEFAULT_EPSILON = 0.1
THICK_RANGE = (0.1, 2.0)


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(n)}) == 1


def random_pants_description(rng: random.Random, genus: int) -> dict:
    """JSON-ready ``{"genus", "vertices", "edges"}`` of a random genus-g surface."""
    if genus < 2:
        raise ValueError(f"genus must be >= 2, got {genus}")
    n = 2 * genus - 2
    m = 3 * genus - 3
    while True:
        half_edges = [v for v in range(n) for _ in range(3)]
        rng.shuffle(half_edges)
        pairs = [(half_edges[2 * k], half_edges[2 * k + 1]) for k in range(m)]
        if _connected(n, pairs):
            break
    thin = set(rng.sample(range(m), round(THIN_SHARE * m)))
    edges = []
    for k, (a, b) in enumerate(pairs):
        lo, hi = THIN_RANGE if k in thin else THICK_RANGE
        edges.append(
            {
                "a": f"p{a:03d}",
                "b": f"p{b:03d}",
                "length": rng.uniform(lo, hi),
                "twist": 0.0,
                "label": f"c{k:03d}",
            }
        )
    return {
        "genus": genus,
        "vertices": [f"p{v:03d}" for v in range(n)],
        "edges": edges,
    }


def component_count(desc: dict, removed) -> int:
    """Dual-graph components after removing the labelled curves.

    Written independently of ``hypspec.cuts`` so that the benchmark's
    output check does not trust the code it measures.
    """
    index = {v: i for i, v in enumerate(desc["vertices"])}
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    removed = set(removed)
    count = len(index)
    for e in desc["edges"]:
        if e["label"] in removed:
            continue
        ra, rb = find(index[e["a"]]), find(index[e["b"]])
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count
