"""Collar geometry around short closed geodesics.

A geodesic of length l on a hyperbolic surface carries an embedded
cylinder ("collar") with Fermi coordinates (rho, t): rho is the signed
distance to the core, t in [0, 1) runs along it, and the metric is
drho^2 + l^2 cosh^2(rho) dt^2.  The maximal embedded half-width is
w(l) = arcsinh(1/sinh(l/2)), so e^w ~ 4/l as l -> 0.  The "modified"
half-width w - 2 leaves a unit-width shell inside the thick part just
outside the collar.  All closed forms below are exercised against an
independent high-precision oracle in the tests.

Distances between collar points come from one array kernel,
:func:`collar_distances`, which :func:`shell_detour_lengths` calls: it
takes broadcastable numpy arrays of Fermi coordinates and evaluates
them all at once, so a sampler can test thousands of pairs in one call,
and a single pair is a call on scalars.  The kernel compares only two
deck translates of the second point, those shifted by floor and ceil of
the t-difference: the distance grows with the size of the shift, and
the nearest integer to the t-difference is always one of the two.
The two array functions import numpy when called, so importing this
module, or using only its closed forms, loads no numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def max_half_width(length: float) -> float:
    """Maximal embedded collar half-width arcsinh(1/sinh(l/2))."""
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    return math.asinh(1.0 / math.sinh(0.5 * length))


def modified_half_width(length: float) -> float:
    """Half-width shrunk by 2, floored at zero: max(0, w(l) - 2)."""
    return max(0.0, max_half_width(length) - 2.0)


def collar_volume(length: float, half_width: float) -> float:
    """Area 2 l sinh(w) of the collar of half-width w."""
    if half_width < 0.0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    return 2.0 * length * math.sinh(half_width)


def shell_volume(length: float, half_width: float) -> float:
    """Area 2 l (sinh(w+1) - sinh(w)) of the unit shell outside half-width w."""
    if half_width < 0.0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    return 2.0 * length * (math.sinh(half_width + 1.0) - math.sinh(half_width))


def gudermannian(w: float) -> float:
    """gd(w) = 2 arctan(tanh(w/2)) = integral of sech over [0, w]."""
    return 2.0 * math.atan(math.tanh(0.5 * w))


@dataclass(frozen=True)
class Collar:
    """A collar of half-width ``half_width`` around a core of length ``core_length``."""

    core_length: float
    half_width: float
    has_shell: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.core_length) and self.core_length > 0.0):
            raise ValueError(f"core_length must be positive, got {self.core_length}")
        if self.half_width < 0.0:
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")
        limit = max_half_width(self.core_length)
        if self.half_width > limit * (1.0 + 1e-12) + 1e-15:
            raise ValueError(
                f"half_width {self.half_width} exceeds the embedding bound "
                f"{limit} for core length {self.core_length}"
            )

    def volume(self) -> float:
        return collar_volume(self.core_length, self.half_width)

    def shell_volume(self) -> float:
        return shell_volume(self.core_length, self.half_width)


# -------------------------------------------------------------------
# distances
# -------------------------------------------------------------------

def collar_distances(rho1, t1, rho2, t2, length) -> np.ndarray:
    """Geodesic distances between collar points, element-wise over arrays.

    The collar lifts to the upper half-plane with the core on the unit
    circle: the point (rho, t) sits at r e^{i theta} with
    theta = 2 arctan(e^{-rho}) and r = e^{l t}, and the deck group is
    z -> e^{k l} z.  The first point is placed at t = 0, the second at
    t = base - k with base = t2 - t1, and the distance is minimized over
    k in {floor(base), ceil(base)}.  Those two candidates suffice:
    cosh d = cosh rho1 cosh rho2 cosh(l s) - sinh rho1 sinh rho2 grows
    with the shift |s| = |base - k|, and the nearest integer to base is
    one of them.
    """
    import numpy as np

    theta1 = 2.0 * np.arctan(np.exp(np.negative(rho1)))
    theta2 = 2.0 * np.arctan(np.exp(np.negative(rho2)))
    x1, y1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    base = np.subtract(t2, t1)

    def distance_to_translate(k):
        r2 = np.exp(length * (base - k))
        y2 = r2 * s2
        gap_sq = np.hypot(x1 - r2 * c2, y1 - y2) ** 2
        return np.arccosh(1.0 + gap_sq / (2.0 * y1 * y2))

    return np.minimum(
        distance_to_translate(np.floor(base)), distance_to_translate(np.ceil(base))
    )


def shell_detour_lengths(rho1, rho2, t1, t2, length) -> tuple[np.ndarray, np.ndarray]:
    """(direct, detour) arrays for same-side shell point pairs.

    The arguments broadcast against each other like numpy arrays, and
    element j describes the pair (rho1, t1), (rho2, t2) on a collar of
    core length ``length``.  The detour follows the equidistant circle
    at rho1 (arc length |dt| l cosh rho1, with dt the circular
    t-difference) and then the radial segment |rho2 - rho1|.  For
    admissible shells and pairs at direct distance <= epsilon the
    detour is at most 5x direct.  The direct distance minimizes over
    the two deck translates floor(t2 - t1) and ceil(t2 - t1) only: the
    distance grows with the translate's shift, so the nearest one is
    always among them.
    """
    import numpy as np

    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if np.any(rho1 < 0.0) or np.any(rho2 < 0.0):
        raise ValueError("shell points must lie on one side of the core (rho >= 0)")
    direct = collar_distances(rho1, t1, rho2, t2, length)
    dt = np.abs(np.subtract(t1, t2)) % 1.0
    dt = np.minimum(dt, 1.0 - dt)
    detour = dt * length * np.cosh(rho1) + np.abs(rho2 - rho1)
    return direct, detour

