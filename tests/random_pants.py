"""Seeded random pants surfaces for the cut tests.

The configuration model: each of the 2g-2 pants contributes three
half-edges, the 6g-6 half-edges are shuffled and paired off into the
3g-3 curves, self-loops and multi-edges are kept, and disconnected draws
are rejected.  Lengths are drawn by ``draw_length(rng)``.
"""
from __future__ import annotations

import random

from hypspec.surfaces import PantsSurface, build_from_description, connected_components

TIE_LENGTHS = (0.25, 0.5, 0.75)


def continuous_length(rng: random.Random) -> float:
    return rng.uniform(0.05, 1.5)


def tie_length(rng: random.Random) -> float:
    return rng.choice(TIE_LENGTHS)


def random_pants_surface(rng: random.Random, genus: int, draw_length=continuous_length) -> PantsSurface:
    n = 2 * genus - 2
    m = 3 * genus - 3
    while True:
        half_edges = [v for v in range(n) for _ in range(3)]
        rng.shuffle(half_edges)
        pairs = [(half_edges[2 * k], half_edges[2 * k + 1]) for k in range(m)]
        if len(connected_components(range(n), pairs)) == 1:
            break
    return build_from_description(
        {
            "genus": genus,
            "vertices": [f"p{v:03d}" for v in range(n)],
            "edges": [
                {
                    "a": f"p{a:03d}",
                    "b": f"p{b:03d}",
                    "length": draw_length(rng),
                    "twist": 0.0,
                    "label": f"c{k:03d}",
                }
                for k, (a, b) in enumerate(pairs)
            ],
        }
    )
