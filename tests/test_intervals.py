import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interval_oracle
from hypspec.intervals import (
    IntervalStack,
    IntervalSystem,
    _reduction_functionals,
    crossing_weight,
    crossing_weights,
    cut_inequality_by_index,
    cut_inequality_verdicts,
    find_cut_index,
    find_cut_indices,
    random_interval_system,
    random_interval_systems,
    total_gaps,
    verify_cut_inequality,
    weighted_gap_sum,
    weighted_gap_sums,
)


def system(intervals, pairs):
    """Build a system from sparse {(i, j): w} upper-triangle weights."""
    n = len(intervals)
    w = np.zeros((n, n))
    for (i, j), val in pairs.items():
        w[i, j] = w[j, i] = val
    return IntervalSystem(intervals=tuple(intervals), weights=w)


def test_three_point_worked_example():
    # three degenerate intervals at 0, 1, 2 with a single far pair
    s = system([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], {(0, 2): 1.0})
    assert s.total_gap() == 2.0
    assert weighted_gap_sum(s) == 2.0
    k = find_cut_index(s)
    assert k == 2
    # the inequality is tight at both cuts here
    lhs = weighted_gap_sum(s)
    assert lhs == pytest.approx(s.total_gap() * crossing_weight(s, k), rel=1e-15)
    assert verify_cut_inequality(s, 1)
    assert verify_cut_inequality(s, 2)


def test_two_intervals_is_an_identity():
    s = system([(0.0, 1.0), (3.0, 5.0)], {(0, 1): 0.7})
    assert find_cut_index(s) == 1
    # with two intervals, lhs = w01 * gap and rhs = gap * w01
    lhs = weighted_gap_sum(s)
    assert lhs == pytest.approx(s.total_gap() * crossing_weight(s, 1), rel=1e-15)
    assert s.total_gap() == 2.0


def test_crossing_weight_counts_separated_pairs():
    s = system(
        [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)],
        {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 4.0},
    )
    assert crossing_weight(s, 1) == 3.0  # pairs (0,1), (0,2)
    assert crossing_weight(s, 2) == 6.0  # pairs (0,2), (1,2)
    with pytest.raises(ValueError):
        crossing_weight(s, 0)
    with pytest.raises(ValueError):
        crossing_weight(s, 3)


def test_vacuous_inequality_with_zero_crossing():
    # all weight inside one side of the cut: rhs is zero
    s = system([(0.0, 1.0), (2.0, 3.0), (9.0, 9.5)], {(0, 1): 5.0})
    assert crossing_weight(s, 2) == 0.0
    assert verify_cut_inequality(s, 2)


def test_total_gap_ignores_interval_lengths():
    s = system([(0.0, 2.0), (5.0, 6.0), (6.0, 10.0)], {})
    # gaps: 5-2 = 3 and 6-6 = 0
    assert s.total_gap() == pytest.approx(3.0, rel=1e-15)


def test_ordering_validation():
    with pytest.raises(ValueError):
        system([(1.0, 0.5)], {})
    with pytest.raises(ValueError):
        system([(0.0, 2.0), (1.0, 3.0)], {})
    with pytest.raises(ValueError):
        system([(0.0, math.inf)], {})
    with pytest.raises(ValueError):
        IntervalSystem(intervals=(), weights=np.zeros((0, 0)))
    # the second system of a stack overlaps its intervals
    with pytest.raises(ValueError, match="violated at position 1: 2.0 > 1.5"):
        IntervalStack(
            n=[2, 2],
            a=[[0.0, 2.0], [0.0, 1.5]],
            b=[[1.0, 3.0], [2.0, 3.0]],
            weights=np.zeros((2, 2, 2)),
        )


def test_weight_validation():
    ints = ((0.0, 1.0), (2.0, 3.0))
    with pytest.raises(ValueError):
        IntervalSystem(intervals=ints, weights=np.zeros((3, 3)))
    w = np.zeros((2, 2))
    w[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        IntervalSystem(intervals=ints, weights=w)
    with pytest.raises(ValueError):
        IntervalSystem(intervals=ints, weights=-np.ones((2, 2)))
    # the second system of a stack is asymmetric
    stacked = np.zeros((2, 2, 2))
    stacked[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        IntervalStack(n=[2, 2], a=[[0.0, 2.0]] * 2, b=[[1.0, 3.0]] * 2, weights=stacked)


def test_find_cut_index_needs_two_intervals():
    s = system([(0.0, 1.0)], {})
    with pytest.raises(ValueError):
        find_cut_index(s)


def test_reduction_functionals_nonincreasing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = random_interval_system(rng)
        seq = _reduction_functionals(s)
        assert len(seq) == s.n - 1
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))


def test_constructive_index_satisfies_inequality():
    stack = random_interval_systems(np.random.default_rng(3), 500)
    holds = cut_inequality_verdicts(stack)
    for c, k in enumerate(find_cut_indices(stack).tolist()):
        n = int(stack.n[c])
        assert 1 <= k <= n - 1
        assert holds[c, k - 1], (stack.system(c).intervals, stack.system(c).weights, k)


def test_constructive_index_matches_exhaustive_existence():
    # some cut always works; the constructive one is among them
    stack = random_interval_systems(np.random.default_rng(17), 200)
    holds = cut_inequality_verdicts(stack)
    for c, k in enumerate(find_cut_indices(stack).tolist()):
        good = [j + 1 for j in np.flatnonzero(holds[c]).tolist()]
        assert good, "no cut satisfied the inequality"
        assert k in good


def test_cut_index_matches_the_numpy_scalar_oracle():
    # the stacked reduction must break every tie the way the numpy one does
    stack = random_interval_systems(np.random.default_rng(2718), 20_000)
    for c, k in enumerate(find_cut_indices(stack).tolist()):
        s = stack.system(c)
        assert k == interval_oracle.find_cut_index(s), (s.intervals, s.weights)


def test_inequality_verdicts_match_the_numpy_scalar_oracle():
    stack = random_interval_systems(np.random.default_rng(31), 2_000)
    gaps = weighted_gap_sums(stack)
    crossing = crossing_weights(stack)
    holds = cut_inequality_verdicts(stack)
    for c in range(stack.count):
        s = stack.system(c)
        assert gaps[c] == interval_oracle.weighted_gap_sum(s)
        expected = [interval_oracle.verify_cut_inequality(s, k) for k in range(1, s.n)]
        assert holds[c].tolist() == expected + [False] * (stack.a.shape[1] - s.n)
        for k in range(1, s.n):
            assert crossing[c, k - 1] == interval_oracle.crossing_weight(s, k)


@pytest.mark.parametrize("max_intervals", [2, 3, 8])
@pytest.mark.parametrize("seed", range(10))
def test_stacked_draw_is_the_one_system_stream(seed, max_intervals):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = random_interval_systems(rng, 40, max_intervals)
    for c in range(stack.count):
        expected = interval_oracle.random_interval_system(oracle_rng, max_intervals)
        got = stack.system(c)
        assert got.intervals == expected.intervals
        assert np.array_equal(got.weights, expected.weights)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_one_system_functions_are_stacks_of_one():
    stack = random_interval_systems(np.random.default_rng(5), 100)
    ks = find_cut_indices(stack)
    gaps, totals = weighted_gap_sums(stack), total_gaps(stack)
    crossing, holds = crossing_weights(stack), cut_inequality_verdicts(stack)
    for c in range(stack.count):
        s = stack.system(c)
        assert find_cut_index(s) == ks[c]
        assert weighted_gap_sum(s) == gaps[c]
        assert s.total_gap() == totals[c]
        assert cut_inequality_by_index(s) == holds[c, : s.n - 1].tolist()
        for k in range(1, s.n):
            assert crossing_weight(s, k) == crossing[c, k - 1]
            assert verify_cut_inequality(s, k) == holds[c, k - 1]


def test_stack_padding_is_ignored_and_stored_as_zeros():
    s = system([(0.0, 1.0), (2.0, 3.0), (5.0, 5.5)], {(0, 2): 1.0, (1, 2): 0.5})
    w = np.full((1, 4, 4), np.nan)
    w[0, :3, :3] = s.weights
    padded = IntervalStack(
        n=[3], a=[[0.0, 2.0, 5.0, np.inf]], b=[[1.0, 3.0, 5.5, -1.0]], weights=w
    )
    assert padded.a[0, 3] == padded.b[0, 3] == 0.0
    assert not padded.weights[0, 3].any() and not padded.weights[0, :, 3].any()
    assert find_cut_indices(padded)[0] == find_cut_index(s)
    assert weighted_gap_sums(padded)[0] == weighted_gap_sum(s)
    assert cut_inequality_verdicts(padded)[0].tolist() == cut_inequality_by_index(s) + [False]


def test_reduction_runs_on_plain_floats():
    s = random_interval_system(np.random.default_rng(4), max_intervals=8)
    assert type(weighted_gap_sum(s)) is float
    assert type(crossing_weight(s, 1)) is float
    assert all(type(v) is float for v in _reduction_functionals(s))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_cut_inequality_holds(seed):
    rng = np.random.default_rng(seed)
    s = random_interval_system(rng)
    k = find_cut_index(s)
    lhs = weighted_gap_sum(s)
    rhs = s.total_gap() * crossing_weight(s, k)
    assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6
    ),
    lengths=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=7
    ),
)
def test_property_total_gap_is_sum_of_gaps(gaps, lengths):
    n = min(len(gaps) + 1, len(lengths))
    gaps = gaps[: n - 1]
    lengths = lengths[:n]
    ints = []
    x = 0.0
    for i in range(n):
        ints.append((x, x + lengths[i]))
        x += lengths[i]
        if i < n - 1:
            x += gaps[i]
    s = IntervalSystem(intervals=tuple(ints), weights=np.zeros((n, n)))
    assert s.total_gap() == pytest.approx(math.fsum(gaps), abs=1e-9)
