"""Weighted interval systems and the cut-inequality reduction.

An interval system is an ordered family I_1 <= ... <= I_n on the line
(a_1 <= b_1 <= a_2 <= ... <= b_n) with symmetric nonnegative pair
weights.  The weighted gap sum  sum_{i<j} w_ij (a_j - b_i)  always
dominates  (total gap) * (weight crossing some index K_0):

    sum_{i<j} w_ij dist(I_i, I_j)
        >= (b_n - a_1 - sum_i |I_i|) * sum_{i <= K_0 < j} w_ij.

``find_cut_index`` produces such a K_0 constructively by repeatedly
sliding the leftmost interior interval to whichever neighbor gives the
smaller functional, merging the touching pair, and recursing; the
functional never increases along the way, which is what makes the
final inequality transfer back to the original system.

Every computation runs on an :class:`IntervalStack`: many systems
padded to one width, drawn and reduced together with numpy.  Each sum
is taken pair by pair in row order, one numpy operation per pair
across the whole stack.  The padding is stored as zeros, so a padded
pair adds a signed zero, which leaves a sum that starts at +0.0
unchanged: each system gets exactly the float operations, in the same
order, of reducing it alone.  The single-system functions
(``find_cut_index``, ``cut_inequality_by_index``, ...) are the stacked
ones applied to a stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IntervalStack:
    """``count`` interval systems padded to a common width N.

    System c has ``n[c]`` intervals ``(a[c, i], b[c, i])``, i < n[c],
    and weights ``weights[c, :n[c], :n[c]]``.  Construction validates
    every system by the rules of :class:`IntervalSystem` and stores the
    padding as zeros.
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

    def system(self, c: int) -> IntervalSystem:
        """System c on its own."""
        k = int(self.n[c])
        return IntervalSystem(
            intervals=tuple(zip(self.a[c, :k].tolist(), self.b[c, :k].tolist())),
            weights=self.weights[c, :k, :k].copy(),
        )


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


@dataclass(frozen=True)
class IntervalSystem:
    """Ordered intervals with symmetric nonnegative pair weights.

    ``intervals`` is a tuple of (a, b) pairs satisfying the chain
    a_1 <= b_1 <= a_2 <= b_2 <= ...; ``weights`` is an n x n symmetric
    array with zero-ignored diagonal, only the i < j entries matter.
    """

    intervals: tuple[tuple[float, float], ...]
    weights: np.ndarray
    _stack: IntervalStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.intervals)
        if n < 1:
            raise ValueError("interval system needs at least one interval")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"weights must be {n}x{n}, got {w.shape}")
        ab = np.array(self.intervals, dtype=float).reshape(1, n, 2)
        stack = IntervalStack(np.array([n]), ab[:, :, 0], ab[:, :, 1], w[None])
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_stack", stack)

    @property
    def n(self) -> int:
        return len(self.intervals)

    def total_gap(self) -> float:
        """b_n - a_1 minus the total interval length (sum of interior gaps)."""
        return float(total_gaps(self._stack)[0])


# -------------------------------------------------------------------
# sums and verdicts over a stack
# -------------------------------------------------------------------

def _gap_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over i < j of w[i, j] * (a_j - b_i), pair by pair in row order."""
    terms = (w * (a[:, None, :] - b[:, :, None])).transpose(1, 2, 0)
    total = np.zeros(len(a))
    for i in range(a.shape[1]):
        for j in range(i + 1, a.shape[1]):
            total += terms[i, j]
    return total


def weighted_gap_sums(stack: IntervalStack) -> np.ndarray:
    """sum over i < j of w_ij * (a_j - b_i), per system."""
    return _gap_sums(stack.a, stack.b, stack.weights)


def crossing_weights(stack: IntervalStack) -> np.ndarray:
    """(count, N - 1): column K0 - 1 sums w_ij over 1-based i <= K0 < j.

    Each column adds its pairs in row order; entries at K0 >= n are 0.
    """
    width = stack.a.shape[1]
    w = stack.weights.transpose(1, 2, 0)
    out = np.zeros((max(width - 1, 0), stack.count))
    for k in range(1, width):
        for i in range(k):
            for j in range(k, width):
                out[k - 1] += w[i, j]
    return out.T


def total_gaps(stack: IntervalStack) -> np.ndarray:
    """b_n - a_1 minus the total interval length, per system (one fsum each)."""
    lengths = (stack.b - stack.a).tolist()
    inside = np.array([math.fsum(row[:k]) for row, k in zip(lengths, stack.n.tolist())])
    last = stack.b[np.arange(stack.count), stack.n - 1]
    return last - stack.a[:, 0] - inside


def cut_inequality_verdicts(stack: IntervalStack, *, rtol: float = 1e-12) -> np.ndarray:
    """(count, N - 1) booleans: the cut inequality at K0 = column + 1.

    ``weighted_gap_sum >= total_gap * crossing_weight`` up to ``rtol``;
    a nonpositive right-hand side makes it vacuous (the ordering
    invariant keeps total_gap >= 0, so this only happens with zero
    crossing weight).  Entries at K0 >= n are False.
    """
    lhs = weighted_gap_sums(stack)[:, None]
    rhs = total_gaps(stack)[:, None] * crossing_weights(stack)
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    holds = lhs >= rhs - rtol * scale
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
    way every time.
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


def _reduction_functionals(system: IntervalSystem) -> list[float]:
    """Functional value of the original system and of every merged stage.

    The sequence is nonincreasing; the final entry belongs to a
    two-interval system whose cut inequality is an identity.  The tests
    check that monotonicity, which :func:`find_cut_index` relies on.
    Every merged stage is validated as an interval system.
    """
    out = [weighted_gap_sum(system)]
    for _, _, a, b, w, m in _collapse_stages(system._stack):
        out.append(float(weighted_gap_sums(IntervalStack(m, a, b, w))[0]))
    return out


# -------------------------------------------------------------------
# single systems: stacks of one
# -------------------------------------------------------------------

def weighted_gap_sum(system: IntervalSystem) -> float:
    """sum over i < j of w_ij * (a_j - b_i)."""
    return float(weighted_gap_sums(system._stack)[0])


def _check_cut_index(system: IntervalSystem, cut_index: int) -> None:
    if not 1 <= cut_index <= system.n - 1:
        raise ValueError(f"cut index must lie in [1, n-1], got {cut_index}")


def crossing_weight(system: IntervalSystem, cut_index: int) -> float:
    """sum of w_ij over pairs separated by the cut (1-based i <= K0 < j)."""
    _check_cut_index(system, cut_index)
    return float(crossing_weights(system._stack)[0, cut_index - 1])


def verify_cut_inequality(
    system: IntervalSystem, cut_index: int, *, rtol: float = 1e-12
) -> bool:
    """Check weighted_gap_sum >= total_gap * crossing_weight at K0.

    A nonpositive right-hand side makes the inequality vacuous (the
    ordering invariant keeps total_gap >= 0, so this only happens with
    zero crossing weight); vacuous cases return True.
    """
    _check_cut_index(system, cut_index)
    return bool(cut_inequality_verdicts(system._stack, rtol=rtol)[0, cut_index - 1])


def cut_inequality_by_index(system: IntervalSystem, *, rtol: float = 1e-12) -> list[bool]:
    """:func:`verify_cut_inequality` at K0 = 1, ..., n - 1, in that order."""
    return cut_inequality_verdicts(system._stack, rtol=rtol)[0].tolist()


def find_cut_index(system: IntervalSystem) -> int:
    """Constructive K0 in [1, n-1] satisfying the cut inequality.

    See :func:`find_cut_indices`, which this runs on a stack of one.
    """
    return int(find_cut_indices(system._stack)[0])


# -------------------------------------------------------------------
# random systems
# -------------------------------------------------------------------

def random_interval_systems(
    rng: np.random.Generator, count: int, max_intervals: int = 8
) -> IntervalStack:
    """``count`` random chain-ordered systems, degenerate and touching cases included.

    Endpoints are sorted uniforms on [0, 10] with some collapsed onto
    their left neighbor (each with probability 0.2, producing
    zero-length intervals and touching pairs); weights are a sparsified
    (kept with probability 0.7) symmetric uniform matrix.  Each system
    takes one ``integers`` draw for n and one ``random`` draw of
    4n - 1 + 2n^2 values, sliced into the 2n endpoints, the 2n - 1
    collapse coins, the n x n weights and the n x n sparsity mask.
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``, so the values
    and the generator's state are those of drawing each part with its
    own call.  The stack has width ``max_intervals``.
    """
    integers, random = rng.integers, rng.random
    sizes, draws = [], []
    for _ in range(count):
        k = int(integers(2, max_intervals + 1))
        sizes.append(k)
        draws.append(random(4 * k - 1 + 2 * k * k))
    n = np.array(sizes, dtype=np.intp)
    width = max_intervals
    pts = np.full((count, 2 * width), np.inf)
    coins = np.ones((count, 2 * width))
    weights = np.zeros((count, width, width))
    kept = np.zeros((count, width, width))
    for k in np.unique(n).tolist():
        rows = np.flatnonzero(n == k)
        u = np.stack([draws[r] for r in rows])
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


def random_interval_system(
    rng: np.random.Generator, max_intervals: int = 8
) -> IntervalSystem:
    """One system of :func:`random_interval_systems`."""
    return random_interval_systems(rng, 1, max_intervals).system(0)
