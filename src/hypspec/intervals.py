"""Weighted interval systems and the cut-inequality reduction.

An interval system is an ordered family I_1 <= ... <= I_n on the line
(a_1 <= b_1 <= a_2 <= ... <= b_n) with symmetric nonnegative pair
weights.  The weighted gap sum  sum_{i<j} w_ij (a_j - b_i)  always
dominates  (total gap) * (weight crossing some index K_0):

    sum_{i<j} w_ij dist(I_i, I_j)
        >= (b_n - a_1 - sum_i |I_i|) * sum_{i <= K_0 < j} w_ij.

``find_cut_indices`` produces such a K_0 constructively by repeatedly
sliding the leftmost interior interval to whichever neighbor gives the
smaller functional, merging the touching pair, and recursing; the
functional never increases along the way, which is what makes the
final inequality transfer back to the original system.

Every computation runs on an :class:`IntervalStack`: many systems
padded to one width, drawn and reduced together with numpy; a single
system is a stack with ``count == 1``.  Each sum gathers its terms,
pair by pair in row order, into one C-contiguous (terms, systems)
array that ``np.add.reduce`` adds to +0.0 row after row.  The padding
is stored as zeros, so a padded pair adds a signed zero, which leaves
a sum that starts at +0.0 unchanged: each system gets exactly the
float operations, in the same order, of reducing it alone.
``random_interval_systems`` draws a whole stack with one generator
call for the sizes and one per size drawn; each system has the law of
drawing it alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .verify import Draws

CUT_RTOL = 1e-12


@dataclass(frozen=True)
class IntervalStack:
    """``count`` interval systems padded to a common width N.

    System c has ``n[c]`` intervals ``(a[c, i], b[c, i])``, i < n[c],
    chain-ordered a_1 <= b_1 <= a_2 <= b_2 <= ..., and symmetric
    nonnegative weights ``weights[c, :n[c], :n[c]]``, of which only the
    i < j entries matter.  Construction validates every system (see
    ``_check_systems``) and stores the padding as zeros.
    """

    n: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if n.ndim != 1 or a.ndim != 2:
            raise ValueError("a stack needs counts of shape (count,) and endpoints (count, N)")
        count, width = a.shape
        if n.shape != (count,) or b.shape != a.shape or w.shape != (count, width, width):
            raise ValueError(
                f"stack shapes disagree: n {n.shape}, a {a.shape}, b {b.shape}, weights {w.shape}"
            )
        if count and not (n.min() >= 1 and n.max() <= width):
            raise ValueError(f"interval counts must lie in [1, {width}]")
        live = np.arange(width) < n[:, None]
        pair = live[:, :, None] & live[:, None, :]
        _check_systems(n, a, b, w, live, pair)
        object.__setattr__(self, "n", n.astype(np.intp))
        object.__setattr__(self, "a", np.where(live, a, 0.0))
        object.__setattr__(self, "b", np.where(live, b, 0.0))
        object.__setattr__(self, "weights", np.where(pair, w, 0.0))

    @property
    def count(self) -> int:
        return len(self.n)


def _check_systems(n, a, b, w, live, pair) -> None:
    """The four rules of an interval system, on the live entries of a stack.

    Endpoints finite, ordered a1 <= b1 <= a2 <= ..., weights symmetric
    and nonnegative, checked in that order over the whole stack; the
    first rule broken raises its ``ValueError``, an ordering fault
    naming the position in the first system that has one.
    """
    if not np.isfinite(a[live]).all() or not np.isfinite(b[live]).all():
        raise ValueError("interval endpoints must be finite")
    flat = np.stack((a, b), axis=2).reshape(len(n), -1)
    steps = np.arange(flat.shape[1] - 1) < 2 * n[:, None] - 1
    bad = (flat[:, :-1] > flat[:, 1:]) & steps
    if bad.any():
        c, k = np.argwhere(bad)[0]
        raise ValueError(
            f"intervals must be ordered a1<=b1<=a2<=...; "
            f"violated at position {k}: {float(flat[c, k])} > {float(flat[c, k + 1])}"
        )
    if ((w != w.transpose(0, 2, 1)) & pair).any():
        raise ValueError("weights must be symmetric")
    if ((w < 0.0) & pair).any():
        raise ValueError("weights must be nonnegative")


# -------------------------------------------------------------------
# sums and verdicts over a stack
# -------------------------------------------------------------------

def _gap_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over i < j of w[i, j] * (a_j - b_i), pair by pair in row order."""
    i, j = np.triu_indices(a.shape[1], 1)
    terms = np.ascontiguousarray((w[:, i, j] * (a[:, j] - b[:, i])).T)
    return np.add.reduce(terms, axis=0, initial=0.0)


def weighted_gap_sums(stack: IntervalStack) -> np.ndarray:
    """sum over i < j of w_ij * (a_j - b_i), per system."""
    return _gap_sums(stack.a, stack.b, stack.weights)


def crossing_weights(stack: IntervalStack) -> np.ndarray:
    """(count, N - 1): column K0 - 1 sums w_ij over 1-based i <= K0 < j.

    Each column adds its pairs in row order; entries at K0 >= n are 0.
    """
    width = stack.a.shape[1]
    i, j = np.triu_indices(width, 1)
    k = np.arange(1, width)
    # every pair in row order; one outside a column adds +0.0 to it
    crosses = ((i[:, None] < k) & (k <= j[:, None]))[:, :, None]
    terms = np.where(crosses, stack.weights[:, i, j].T[:, None, :], 0.0)
    return np.add.reduce(np.ascontiguousarray(terms), axis=0, initial=0.0).T


def total_gaps(stack: IntervalStack) -> np.ndarray:
    """b_n - a_1 minus the total interval length, per system (one fsum each)."""
    lengths = (stack.b - stack.a).tolist()
    inside = np.array([math.fsum(row[:k]) for row, k in zip(lengths, stack.n.tolist())])
    last = stack.b[np.arange(stack.count), stack.n - 1]
    return last - stack.a[:, 0] - inside


def cut_inequality_verdicts(stack: IntervalStack) -> np.ndarray:
    """(count, N - 1) booleans: the cut inequality at K0 = column + 1.

    weighted gap sum >= total gap * crossing weight, up to a roundoff
    slack of :data:`CUT_RTOL` times the larger side (or 1);
    a nonpositive right-hand side makes it vacuous (the ordering
    invariant keeps total_gap >= 0, so this only happens with zero
    crossing weight).  Entries at K0 >= n are False.
    """
    lhs = weighted_gap_sums(stack)[:, None]
    rhs = total_gaps(stack)[:, None] * crossing_weights(stack)
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    holds = lhs >= rhs - CUT_RTOL * scale
    return holds & (np.arange(1, stack.a.shape[1]) < stack.n[:, None])


# -------------------------------------------------------------------
# constructive cut index
# -------------------------------------------------------------------

def _collapse_stages(stack: IntervalStack):
    """Collapse every system with three or more intervals, one stage at a time.

    Yields ``(rows, left, a, b, w, m)`` per stage: the stack indices of
    the systems that merged, whether each slid interval 2 onto its left
    neighbor (ties go left) rather than its right one, and their merged
    systems, with m intervals each.  The functional is affine in the
    slide position, so its minimum over the admissible range sits at
    one of the two touching positions.  Both positions are compared
    through the whole functional, not through its closed-form
    difference: the two round differently, and ties must break the same
    way every time.  The functional never increases from one stage to
    the next, which is what lets the inequality lift back; the tests
    check it on every stage.
    """
    m = stack.n
    width = int(m.max(initial=0))
    a, b, w = stack.a[:, :width], stack.b[:, :width], stack.weights[:, :width, :width]
    rows = np.arange(stack.count)
    while True:
        more = m > 2
        if not more.any():
            return
        rows, a, b, w, m = rows[more], a[more], b[more], w[more], m[more]
        length2 = b[:, 1] - a[:, 1]
        slid_b = b[:, 0] + length2
        slid_a = a[:, 2] - length2
        trial_a, trial_b = a.copy(), b.copy()
        trial_a[:, 1], trial_b[:, 1] = b[:, 0], slid_b
        f_left = _gap_sums(trial_a, trial_b, w)
        trial_a[:, 1], trial_b[:, 1] = slid_a, a[:, 2]
        f_right = _gap_sums(trial_a, trial_b, w)
        left = f_left <= f_right

        # left: intervals 1 and 2 become one; right: intervals 2 and 3 do
        a = np.delete(a, 1, axis=1)
        a[:, 1] = np.where(left, a[:, 1], slid_a)
        b = np.delete(b, 1, axis=1)
        b[:, 0] = np.where(left, slid_b, b[:, 0])
        w_left = w[:, 1:, 1:].copy()
        w_left[:, 0, 0] = 0.0
        w_left[:, 0, 1:] = w_left[:, 1:, 0] = w[:, 0, 2:] + w[:, 1, 2:]
        w_right = np.delete(np.delete(w, 2, axis=1), 2, axis=2)
        w_right[:, 0, 0] = w_right[:, 1, 1] = 0.0
        w_right[:, 0, 1] = w_right[:, 1, 0] = w[:, 0, 1] + w[:, 0, 2]
        w_right[:, 1, 2:] = w_right[:, 2:, 1] = w[:, 1, 3:] + w[:, 2, 3:]
        w = np.where(left[:, None, None], w_left, w_right)
        m = m - 1
        yield rows, left, a, b, w, m


def find_cut_indices(stack: IntervalStack) -> np.ndarray:
    """Constructive K0 in [1, n-1] satisfying the cut inequality, per system.

    Reduction: for n = 2 the inequality at K0 = 1 is an identity; for
    n >= 3 collapse the leftmost interior interval (ties toward the
    left neighbor), recurse on the merged (n-1)-system, and lift the
    index back.
    """
    if (stack.n < 2).any():
        raise ValueError("cut index needs at least two intervals")
    stages = [(rows, left) for rows, left, *_ in _collapse_stages(stack)]
    k = np.ones(stack.count, dtype=np.intp)
    for rows, left in reversed(stages):
        k[rows] += left | (k[rows] > 1)
    return k


# -------------------------------------------------------------------
# random systems
# -------------------------------------------------------------------

def random_interval_systems(
    rng: Draws, count: int, max_intervals: int = 8
) -> IntervalStack:
    """``count`` random chain-ordered systems, degenerate and touching cases included.

    Endpoints are sorted uniforms on [0, 10] with some collapsed onto
    their left neighbor (each with probability 0.2, producing
    zero-length intervals and touching pairs); weights are a sparsified
    (kept with probability 0.7) symmetric uniform matrix.  The stack
    has width ``max_intervals``.

    ``rng`` is any generator with the calls of
    :class:`hypspec.verify.Draws`, and the draws come as whole arrays:
    one ``integers(2, max_intervals + 1, size=count)`` call gives every
    system's n, then one ``random`` call per size, in increasing order
    of size, gives the 4n - 1 + 2n^2 uniforms of each system of that
    size, one row per system in stack order, sliced into the 2n
    endpoints (scaled to [0, 10]), the 2n - 1 collapse coins, the n x n
    weights and the n x n sparsity mask.  So every system has the law
    of drawing it on its own; only which draw lands in which system
    depends on the sizes drawn.
    """
    n = rng.integers(2, max_intervals + 1, size=count)
    width = max_intervals
    pts = np.full((count, 2 * width), np.inf)
    coins = np.ones((count, 2 * width))
    weights = np.zeros((count, width, width))
    kept = np.zeros((count, width, width))
    for k in sorted(set(n.tolist())):
        rows = np.flatnonzero(n == k)
        u = rng.random((rows.size, 4 * k - 1 + 2 * k * k))
        pts[rows, : 2 * k] = 10.0 * u[:, : 2 * k]
        coins[rows, 1 : 2 * k] = u[:, 2 * k : 4 * k - 1]
        weights[rows, :k, :k] = u[:, 4 * k - 1 : 4 * k - 1 + k * k].reshape(-1, k, k)
        kept[rows, :k, :k] = u[:, 4 * k - 1 + k * k :].reshape(-1, k, k)
    pts.sort(axis=1)
    # a collapsed endpoint takes the value of the nearest earlier one that is not
    source = np.where(coins < 0.2, 0, np.arange(2 * width))
    pts = np.take_along_axis(pts, np.maximum.accumulate(source, axis=1), axis=1)
    weights = np.triu(weights * (kept < 0.7), 1)
    return IntervalStack(n, pts[:, 0::2], pts[:, 1::2], weights + weights.transpose(0, 2, 1))
