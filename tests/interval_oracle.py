"""One-system oracles for the interval cut reduction and its random draw.

The cut reduction and its sums on numpy scalars, one system at a time:
weights are read element by element from the numpy array and merged
systems are numpy arrays.  The library, which reduces whole stacks,
must return the same cut index and the same inequality verdicts.
``random_interval_system`` draws one system with one generator call per
part; the library's stacked draw must give the same systems and leave
the generator in the same state.
"""
import numpy as np

from hypspec.intervals import IntervalSystem


def random_interval_system(rng, max_intervals=8):
    """Random chain-ordered system, degenerate and touching cases included."""
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


def weighted_gap_sum(system) -> float:
    """sum over i < j of w_ij * (a_j - b_i)."""
    total = 0.0
    ints = system.intervals
    w = system.weights
    for i in range(system.n):
        for j in range(i + 1, system.n):
            total += w[i, j] * (ints[j][0] - ints[i][1])
    return total


def crossing_weight(system, cut_index: int) -> float:
    """sum of w_ij over pairs separated by the cut (1-based i <= K0 < j)."""
    w = system.weights
    return float(sum(w[i, j] for i in range(cut_index) for j in range(cut_index, system.n)))


def verify_cut_inequality(system, cut_index: int, *, rtol: float = 1e-12) -> bool:
    lhs = weighted_gap_sum(system)
    rhs = system.total_gap() * crossing_weight(system, cut_index)
    tol = rtol * max(1.0, abs(lhs), abs(rhs))
    return lhs >= rhs - tol


def _collapse_once(ints, w):
    n = len(ints)
    (a1, b1), (a2, b2) = ints[0], ints[1]
    a3 = ints[2][0]
    length2 = b2 - a2

    def functional(mid):
        trial = [ints[0], mid] + ints[2:]
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += w[i, j] * (trial[j][0] - trial[i][1])
        return total

    f_left = functional((b1, b1 + length2))
    f_right = functional((a3 - length2, a3))

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


def find_cut_index(system) -> int:
    """Constructive K0: collapse the leftmost interior interval, ties to the left."""
    ints = [tuple(ab) for ab in system.intervals]
    w = system.weights.copy()
    lift = []
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
