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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntervalSystem:
    """Ordered intervals with symmetric nonnegative pair weights.

    ``intervals`` is a tuple of (a, b) pairs satisfying the chain
    a_1 <= b_1 <= a_2 <= b_2 <= ...; ``weights`` is an n x n symmetric
    array with zero-ignored diagonal, only the i < j entries matter.
    """

    intervals: tuple[tuple[float, float], ...]
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.intervals)
        if n < 1:
            raise ValueError("interval system needs at least one interval")
        flat = [x for ab in self.intervals for x in ab]
        if any(not math.isfinite(x) for x in flat):
            raise ValueError("interval endpoints must be finite")
        for k in range(len(flat) - 1):
            if flat[k] > flat[k + 1]:
                raise ValueError(
                    f"intervals must be ordered a1<=b1<=a2<=...; "
                    f"violated at position {k}: {flat[k]} > {flat[k + 1]}"
                )
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"weights must be {n}x{n}, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if (w < 0.0).any():
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.intervals)

    def total_gap(self) -> float:
        """b_n - a_1 minus the total interval length (sum of interior gaps)."""
        a1 = self.intervals[0][0]
        bn = self.intervals[-1][1]
        return bn - a1 - math.fsum(b - a for a, b in self.intervals)


def _gap_sum(ints, w: list[list[float]]) -> float:
    """sum over i < j of w[i][j] * (a_j - b_i), pair by pair in row order."""
    total = 0.0
    n = len(ints)
    for i in range(n):
        w_i, b_i = w[i], ints[i][1]
        for j in range(i + 1, n):
            total += w_i[j] * (ints[j][0] - b_i)
    return total


def _crossing(w: list[list[float]], cut_index: int) -> float:
    """sum of w[i][j] over i < cut_index <= j, pair by pair in row order."""
    n = len(w)
    total = 0.0
    for i in range(cut_index):
        w_i = w[i]
        for j in range(cut_index, n):
            total += w_i[j]
    return total


def _holds(lhs: float, rhs: float, rtol: float) -> bool:
    return lhs >= rhs - rtol * max(1.0, abs(lhs), abs(rhs))


def weighted_gap_sum(system: IntervalSystem) -> float:
    """sum over i < j of w_ij * (a_j - b_i)."""
    return _gap_sum(system.intervals, system.weights.tolist())


def crossing_weight(system: IntervalSystem, cut_index: int) -> float:
    """sum of w_ij over pairs separated by the cut (1-based i <= K0 < j)."""
    if not 1 <= cut_index <= system.n - 1:
        raise ValueError(f"cut index must lie in [1, n-1], got {cut_index}")
    return _crossing(system.weights.tolist(), cut_index)


def verify_cut_inequality(
    system: IntervalSystem, cut_index: int, *, rtol: float = 1e-12
) -> bool:
    """Check weighted_gap_sum >= total_gap * crossing_weight at K0.

    A nonpositive right-hand side makes the inequality vacuous (the
    ordering invariant keeps total_gap >= 0, so this only happens with
    zero crossing weight); vacuous cases return True.
    """
    lhs = weighted_gap_sum(system)
    rhs = system.total_gap() * crossing_weight(system, cut_index)
    return _holds(lhs, rhs, rtol)


def cut_inequality_by_index(system: IntervalSystem, *, rtol: float = 1e-12) -> list[bool]:
    """:func:`verify_cut_inequality` at K0 = 1, ..., n - 1, in that order.

    The left-hand side and the total gap are computed once.
    """
    w = system.weights.tolist()
    lhs = _gap_sum(system.intervals, w)
    gap = system.total_gap()
    return [_holds(lhs, gap * _crossing(w, k), rtol) for k in range(1, system.n)]


# -------------------------------------------------------------------
# constructive cut index
# -------------------------------------------------------------------

def _collapse_once(
    ints: list[tuple[float, float]], w: list[list[float]]
) -> tuple[list[tuple[float, float]], list[list[float]], str]:
    """Slide interval 2 onto a neighbor, merge, and return the smaller system.

    Returns the merged intervals, merged weights, and which side won
    ("left" or "right"; ties go left).  The functional is affine in
    the slide position, so its minimum over the admissible range sits
    at one of the two touching positions.  Both positions are compared
    through the whole functional, not through its closed-form
    difference: the two round differently, and ties must break the
    same way every time.
    """
    n = len(ints)
    (a1, b1), (a2, b2) = ints[0], ints[1]
    a3 = ints[2][0]
    length2 = b2 - a2
    rest = ints[2:]
    f_left = _gap_sum([ints[0], (b1, b1 + length2)] + rest, w)
    f_right = _gap_sum([ints[0], (a3 - length2, a3)] + rest, w)

    w0, w1 = w[0], w[1]
    if f_left <= f_right:
        merged = [(a1, b1 + length2)] + rest
        top = [0.0] + [w0[j] + w1[j] for j in range(2, n)]
        wm = [top] + [[top[i - 1]] + w[i][2:] for i in range(2, n)]
        return merged, wm, "left"
    merged = [ints[0], (a3 - length2, ints[2][1])] + ints[3:]
    w2 = w[2]
    top = [0.0, w0[1] + w0[2]] + w0[3:]
    second = [top[1], 0.0] + [w1[j] + w2[j] for j in range(3, n)]
    wm = [top, second] + [
        [w[i][0], second[i - 1]] + w[i][3:] for i in range(3, n)
    ]
    return merged, wm, "right"


def find_cut_index(system: IntervalSystem) -> int:
    """Constructive K0 in [1, n-1] satisfying the cut inequality.

    Reduction: for n = 2 the inequality at K0 = 1 is an identity; for
    n >= 3 collapse the leftmost interior interval (ties toward the
    left neighbor), recurse on the merged (n-1)-system, and lift the
    index back.  The reduction runs on plain Python floats.
    """
    if system.n < 2:
        raise ValueError("cut index needs at least two intervals")
    ints = list(system.intervals)
    w = system.weights.tolist()
    lift: list[str] = []
    while len(ints) > 2:
        ints, w, side = _collapse_once(ints, w)
        lift.append(side)
    k = 1
    for side in reversed(lift):
        if side == "left":
            k = k + 1
        else:
            k = 1 if k == 1 else k + 1
    return k


def _reduction_functionals(system: IntervalSystem) -> list[float]:
    """Functional value of the original system and of every merged stage.

    The sequence is nonincreasing; the final entry belongs to a
    two-interval system whose cut inequality is an identity.  The tests
    check that monotonicity, which :func:`find_cut_index` relies on.
    """
    ints = list(system.intervals)
    w = system.weights.tolist()
    out = [weighted_gap_sum(system)]
    while len(ints) > 2:
        ints, w, _ = _collapse_once(ints, w)
        out.append(weighted_gap_sum(IntervalSystem(tuple(ints), np.array(w))))
    return out


def random_interval_system(
    rng: np.random.Generator, max_intervals: int = 8
) -> IntervalSystem:
    """Random chain-ordered system, degenerate and touching cases included.

    Endpoints are sorted uniforms with some collapsed onto their left
    neighbor (producing zero-length intervals and touching pairs);
    weights are a sparsified symmetric uniform matrix.
    """
    n = int(rng.integers(2, max_intervals + 1))
    pts = np.sort(rng.uniform(0.0, 10.0, size=2 * n))
    for k in range(1, 2 * n):
        if rng.random() < 0.2:
            pts[k] = pts[k - 1]
    intervals = tuple((float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(n))
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w *= rng.random(size=(n, n)) < 0.7
    w = np.triu(w, 1)
    return IntervalSystem(intervals=intervals, weights=w + w.T)
