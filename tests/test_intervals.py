import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interval_oracle
from hypspec.intervals import (
    IntervalSystem,
    _reduction_functionals,
    crossing_weight,
    cut_inequality_by_index,
    find_cut_index,
    random_interval_system,
    verify_cut_inequality,
    weighted_gap_sum,
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
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = random_interval_system(rng)
        k = find_cut_index(s)
        assert 1 <= k <= s.n - 1
        assert verify_cut_inequality(s, k), (s.intervals, s.weights, k)


def test_constructive_index_matches_exhaustive_existence():
    # some cut always works; the constructive one is among them
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = random_interval_system(rng)
        good = [k for k in range(1, s.n) if verify_cut_inequality(s, k)]
        assert good, "no cut satisfied the inequality"
        assert find_cut_index(s) in good


def test_cut_index_matches_the_numpy_scalar_oracle():
    # the float reduction must break every tie the way the numpy one does
    rng = np.random.default_rng(2718)
    for _ in range(20_000):
        s = random_interval_system(rng)
        assert find_cut_index(s) == interval_oracle.find_cut_index(s), (s.intervals, s.weights)


def test_inequality_verdicts_match_the_numpy_scalar_oracle():
    rng = np.random.default_rng(31)
    for _ in range(2_000):
        s = random_interval_system(rng)
        assert weighted_gap_sum(s) == interval_oracle.weighted_gap_sum(s)
        expected = [interval_oracle.verify_cut_inequality(s, k) for k in range(1, s.n)]
        assert [verify_cut_inequality(s, k) for k in range(1, s.n)] == expected
        assert cut_inequality_by_index(s) == expected
        for k in range(1, s.n):
            assert crossing_weight(s, k) == interval_oracle.crossing_weight(s, k)


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
