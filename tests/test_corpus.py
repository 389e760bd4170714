"""The stacked corpora against the one-function-at-a-time oracle.

``tests/corpus_oracle.py`` samples and (for the cutoff corpus) halves
every function on its own; its crossing corpus takes the library's
whole-array draws, its cutoff corpus draws each function's parameters
with their own calls.  The library draws every function's parameters
first and samples one stack per collar shape; the node values, the
floors and the generator's state afterwards must be the same.
"""
import numpy as np
import pytest

import corpus_oracle
from hypspec.spectral.corpus import (
    CROSSING_SHAPES,
    CUTOFF_SHAPES,
    crossing_corpus,
    cutoff_corpus,
)

SEEDS = (0, 1, 7, 42, 2024)


def _interleave(stacks, n_shapes):
    """Function k of the corpus is entry k // n_shapes of stack k % n_shapes."""
    return [
        stacks[k % n_shapes][k // n_shapes]
        for k in range(sum(len(s) for s in stacks))
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_crossing_corpus_matches_the_oracle(seed):
    rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    stacks = crossing_corpus(rng, 200)
    oracle = corpus_oracle.crossing_corpus(rng_oracle, 200)
    assert [(f.ell, f.half_width) for f in stacks] == list(CROSSING_SHAPES)
    got = _interleave([f.values for f in stacks], len(stacks))
    assert len(got) == len(oracle) == 200
    for k, (values, g) in enumerate(zip(got, oracle)):
        assert values.tobytes() == g.values.tobytes(), k
        f = stacks[k % 9]
        assert (f.ell, f.half_width, f.has_shell) == (g.ell, g.half_width, g.has_shell)
    assert rng.bit_generator.state == rng_oracle.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_cutoff_corpus_matches_the_oracle(seed):
    rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    pairs = cutoff_corpus(rng, 100)
    oracle = corpus_oracle.cutoff_corpus(rng_oracle, 100)
    assert [(f.ell, f.half_width) for f, _ in pairs] == list(CUTOFF_SHAPES)
    got_values = _interleave([f.values for f, _ in pairs], len(pairs))
    got_floors = _interleave([floors for _, floors in pairs], len(pairs))
    assert len(got_values) == len(oracle) == 100
    for k, (values, floor, (g, c)) in enumerate(zip(got_values, got_floors, oracle)):
        assert values.tobytes() == g.values.tobytes(), k
        assert floor == c, k
    for k, (g, _) in enumerate(oracle):
        f = pairs[k % 4][0]
        assert (f.ell, f.half_width, f.has_shell) == (g.ell, g.half_width, g.has_shell)
    assert rng.bit_generator.state == rng_oracle.bit_generator.state


def test_small_counts_leave_shapes_out():
    stacks = crossing_corpus(np.random.default_rng(0), 4)
    assert [f.values.shape[0] for f in stacks] == [1, 1, 1, 1]
    pairs = cutoff_corpus(np.random.default_rng(0), 6)
    assert [f.values.shape[0] for f, _ in pairs] == [2, 2, 1, 1]
    assert crossing_corpus(np.random.default_rng(0), 0) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_crossing_nodes_drift_from_the_three_term_sum_below_1e_14(seed):
    # one matrix product per stack may fuse multiply-adds; the term-by-term
    # sum of exact products is the reference
    stacks = crossing_corpus(np.random.default_rng(seed), 200)
    reference = corpus_oracle.three_einsum_crossing_corpus(np.random.default_rng(seed), 200)
    for f, want in zip(stacks, reference, strict=True):
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(f.values - want) <= 1e-14 * scale), (f.ell, f.half_width)
