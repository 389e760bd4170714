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


def weighted_gap_sum(system: IntervalSystem) -> float:
    """sum over i < j of w_ij * (a_j - b_i)."""
    total = 0.0
    ints = system.intervals
    w = system.weights
    for i in range(system.n):
        for j in range(i + 1, system.n):
            total += w[i, j] * (ints[j][0] - ints[i][1])
    return total


def crossing_weight(system: IntervalSystem, cut_index: int) -> float:
    """sum of w_ij over pairs separated by the cut (1-based i <= K0 < j)."""
    if not 1 <= cut_index <= system.n - 1:
        raise ValueError(f"cut index must lie in [1, n-1], got {cut_index}")
    w = system.weights
    return float(sum(w[i, j] for i in range(cut_index) for j in range(cut_index, system.n)))


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
    tol = rtol * max(1.0, abs(lhs), abs(rhs))
    return lhs >= rhs - tol


# -------------------------------------------------------------------
# constructive cut index
# -------------------------------------------------------------------

def _collapse_once(
    ints: list[tuple[float, float]], w: np.ndarray
) -> tuple[list[tuple[float, float]], np.ndarray, str]:
    """Slide interval 2 onto a neighbor, merge, and return the smaller system.

    Returns the merged intervals, merged weights, and which side won
    ("left" or "right"; ties go left).  The functional is affine in
    the slide position, so its minimum over the admissible range sits
    at one of the two touching positions.
    """
    n = len(ints)
    (a1, b1), (a2, b2) = ints[0], ints[1]
    a3 = ints[2][0]
    length2 = b2 - a2

    def functional(mid: tuple[float, float]) -> float:
        trial = [ints[0], mid] + ints[2:]
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += w[i, j] * (trial[j][0] - trial[i][1])
        return total

    left_mid = (b1, b1 + length2)
    right_mid = (a3 - length2, a3)
    f_left = functional(left_mid)
    f_right = functional(right_mid)

    if f_left <= f_right:
        merged = [(a1, b1 + length2)] + ints[2:]
        wm = np.zeros((n - 1, n - 1))
        wm[0, 1:] = w[0, 2:] + w[1, 2:]
        wm[1:, 0] = wm[0, 1:]
        wm[1:, 1:] = w[2:, 2:]
        return merged, wm, "left"
    merged = [ints[0], (a3 - length2, ints[2][1])] + ints[3:]
    wm = np.zeros((n - 1, n - 1))
    wm[0, 1] = w[0, 1] + w[0, 2]
    wm[1, 0] = wm[0, 1]
    if n > 3:
        wm[0, 2:] = w[0, 3:]
        wm[2:, 0] = w[3:, 0]
        wm[1, 2:] = w[1, 3:] + w[2, 3:]
        wm[2:, 1] = wm[1, 2:]
        wm[2:, 2:] = w[3:, 3:]
    return merged, wm, "right"


def find_cut_index(system: IntervalSystem) -> int:
    """Constructive K0 in [1, n-1] satisfying the cut inequality.

    Reduction: for n = 2 the inequality at K0 = 1 is an identity; for
    n >= 3 collapse the leftmost interior interval (ties toward the
    left neighbor), recurse on the merged (n-1)-system, and lift the
    index back.
    """
    if system.n < 2:
        raise ValueError("cut index needs at least two intervals")
    ints = [tuple(ab) for ab in system.intervals]
    w = system.weights.copy()
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
    ints = [tuple(ab) for ab in system.intervals]
    w = system.weights.copy()
    out = [weighted_gap_sum(IntervalSystem(tuple(ints), w))]
    while len(ints) > 2:
        ints, w, _ = _collapse_once(ints, w)
        out.append(weighted_gap_sum(IntervalSystem(tuple(ints), w)))
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
