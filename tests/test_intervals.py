import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interval_oracle
from hypspec.intervals import (
    IntervalStack,
    _collapse_stages,
    crossing_weights,
    cut_inequality_verdicts,
    find_cut_indices,
    random_interval_systems,
    total_gaps,
    weighted_gap_sums,
)


def system(intervals, pairs):
    """A stack of one from sparse {(i, j): w} upper-triangle weights."""
    n = len(intervals)
    w = np.zeros((n, n))
    for (i, j), val in pairs.items():
        w[i, j] = w[j, i] = val
    return IntervalStack(
        n=[n], a=[[a for a, _ in intervals]], b=[[b for _, b in intervals]], weights=w[None]
    )


def rows(stack, c):
    """System c of a stack as the oracle's plain ``(intervals, weights)``."""
    k = int(stack.n[c])
    intervals = tuple(zip(stack.a[c, :k].tolist(), stack.b[c, :k].tolist()))
    return intervals, stack.weights[c, :k, :k]


def test_three_point_worked_example():
    # three degenerate intervals at 0, 1, 2 with a single far pair
    s = system([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], {(0, 2): 1.0})
    assert total_gaps(s)[0] == 2.0
    assert weighted_gap_sums(s)[0] == 2.0
    k = find_cut_indices(s)[0]
    assert k == 2
    # the inequality is tight at both cuts here
    lhs = weighted_gap_sums(s)[0]
    assert lhs == pytest.approx(total_gaps(s)[0] * crossing_weights(s)[0, k - 1], rel=1e-15)
    assert cut_inequality_verdicts(s)[0].tolist() == [True, True]


def test_two_intervals_is_an_identity():
    s = system([(0.0, 1.0), (3.0, 5.0)], {(0, 1): 0.7})
    assert find_cut_indices(s)[0] == 1
    # with two intervals, lhs = w01 * gap and rhs = gap * w01
    lhs = weighted_gap_sums(s)[0]
    assert lhs == pytest.approx(total_gaps(s)[0] * crossing_weights(s)[0, 0], rel=1e-15)
    assert total_gaps(s)[0] == 2.0


def test_crossing_weight_counts_separated_pairs():
    s = system(
        [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)],
        {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 4.0},
    )
    # K0 = 1: pairs (0,1), (0,2); K0 = 2: pairs (0,2), (1,2)
    assert crossing_weights(s)[0].tolist() == [3.0, 6.0]


def test_vacuous_inequality_with_zero_crossing():
    # all weight inside one side of the cut: rhs is zero
    s = system([(0.0, 1.0), (2.0, 3.0), (9.0, 9.5)], {(0, 1): 5.0})
    assert crossing_weights(s)[0, 1] == 0.0
    assert cut_inequality_verdicts(s)[0, 1]


def test_total_gap_ignores_interval_lengths():
    s = system([(0.0, 2.0), (5.0, 6.0), (6.0, 10.0)], {})
    # gaps: 5-2 = 3 and 6-6 = 0
    assert total_gaps(s)[0] == pytest.approx(3.0, rel=1e-15)


def test_ordering_validation():
    with pytest.raises(ValueError):
        system([(1.0, 0.5)], {})
    with pytest.raises(ValueError):
        system([(0.0, 2.0), (1.0, 3.0)], {})
    with pytest.raises(ValueError):
        system([(0.0, math.inf)], {})
    with pytest.raises(ValueError):
        system([], {})
    # the second system of a stack overlaps its intervals
    with pytest.raises(ValueError, match="violated at position 1: 2.0 > 1.5"):
        IntervalStack(
            n=[2, 2],
            a=[[0.0, 2.0], [0.0, 1.5]],
            b=[[1.0, 3.0], [2.0, 3.0]],
            weights=np.zeros((2, 2, 2)),
        )


def test_weight_validation():
    a, b = [[0.0, 2.0]], [[1.0, 3.0]]
    with pytest.raises(ValueError):
        IntervalStack(n=[2], a=a, b=b, weights=np.zeros((1, 3, 3)))
    w = np.zeros((1, 2, 2))
    w[0, 0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        IntervalStack(n=[2], a=a, b=b, weights=w)
    with pytest.raises(ValueError):
        IntervalStack(n=[2], a=a, b=b, weights=-np.ones((1, 2, 2)))
    # the second system of a stack is asymmetric
    stacked = np.zeros((2, 2, 2))
    stacked[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        IntervalStack(n=[2, 2], a=[[0.0, 2.0]] * 2, b=[[1.0, 3.0]] * 2, weights=stacked)


def test_find_cut_index_needs_two_intervals():
    s = system([(0.0, 1.0)], {})
    with pytest.raises(ValueError):
        find_cut_indices(s)


def test_reduction_functionals_nonincreasing():
    stack = random_interval_systems(np.random.default_rng(11), 50)
    functional = weighted_gap_sums(stack)
    stages = np.zeros(stack.count, dtype=int)
    for merged_rows, _, a, b, w, m in _collapse_stages(stack):
        # every merged stage is a valid interval system
        merged = weighted_gap_sums(IntervalStack(m, a, b, w))
        before = functional[merged_rows]
        assert np.all(merged <= before + 1e-12 * np.maximum(1.0, np.abs(before)))
        functional[merged_rows] = merged
        stages[merged_rows] += 1
    # each system collapses down to the two-interval identity
    assert stages.tolist() == (stack.n - 2).tolist()


def test_constructive_index_satisfies_inequality():
    stack = random_interval_systems(np.random.default_rng(3), 500)
    holds = cut_inequality_verdicts(stack)
    for c, k in enumerate(find_cut_indices(stack).tolist()):
        n = int(stack.n[c])
        assert 1 <= k <= n - 1
        assert holds[c, k - 1], (*rows(stack, c), k)


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
        intervals, weights = rows(stack, c)
        assert k == interval_oracle.find_cut_index(intervals, weights), (intervals, weights)


def test_inequality_verdicts_match_the_numpy_scalar_oracle():
    stack = random_interval_systems(np.random.default_rng(31), 2_000)
    gaps = weighted_gap_sums(stack)
    crossing = crossing_weights(stack)
    holds = cut_inequality_verdicts(stack)
    for c in range(stack.count):
        intervals, weights = rows(stack, c)
        n = len(intervals)
        assert gaps[c] == interval_oracle.weighted_gap_sum(intervals, weights)
        expected = [
            interval_oracle.verify_cut_inequality(intervals, weights, k) for k in range(1, n)
        ]
        assert holds[c].tolist() == expected + [False] * (stack.a.shape[1] - n)
        for k in range(1, n):
            assert crossing[c, k - 1] == interval_oracle.crossing_weight(intervals, weights, k)


@pytest.mark.parametrize("max_intervals", [2, 3, 8])
@pytest.mark.parametrize("seed", range(10))
def test_stacked_draw_is_the_one_system_stream(seed, max_intervals):
    # the oracle takes the same whole-array draws, then builds one system at a time
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = random_interval_systems(rng, 40, max_intervals)
    oracle = interval_oracle.random_interval_systems(oracle_rng, 40, max_intervals)
    assert len(oracle) == stack.count
    for c, (intervals, weights) in enumerate(oracle):
        k = len(intervals)
        assert stack.n[c] == k
        assert stack.a[c, :k].tolist() == [a for a, _ in intervals]
        assert stack.b[c, :k].tolist() == [b for _, b in intervals]
        assert np.array_equal(stack.weights[c, :k, :k], weights)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_stack_padding_is_ignored_and_stored_as_zeros():
    s = system([(0.0, 1.0), (2.0, 3.0), (5.0, 5.5)], {(0, 2): 1.0, (1, 2): 0.5})
    w = np.full((1, 4, 4), np.nan)
    w[0, :3, :3] = s.weights[0]
    padded = IntervalStack(
        n=[3], a=[[0.0, 2.0, 5.0, np.inf]], b=[[1.0, 3.0, 5.5, -1.0]], weights=w
    )
    assert padded.a[0, 3] == padded.b[0, 3] == 0.0
    assert not padded.weights[0, 3].any() and not padded.weights[0, :, 3].any()
    assert find_cut_indices(padded)[0] == find_cut_indices(s)[0]
    assert weighted_gap_sums(padded)[0] == weighted_gap_sums(s)[0]
    assert (
        cut_inequality_verdicts(padded)[0].tolist()
        == cut_inequality_verdicts(s)[0].tolist() + [False]
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_cut_inequality_holds(seed):
    rng = np.random.default_rng(seed)
    s = random_interval_systems(rng, 1)
    k = find_cut_indices(s)[0]
    lhs = weighted_gap_sums(s)[0]
    rhs = total_gaps(s)[0] * crossing_weights(s)[0, k - 1]
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
    s = system(ints, {})
    assert total_gaps(s)[0] == pytest.approx(math.fsum(gaps), abs=1e-9)
