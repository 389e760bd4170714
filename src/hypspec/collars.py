"""Collar geometry around short closed geodesics.

A geodesic of length l on a hyperbolic surface carries an embedded
cylinder ("collar") with Fermi coordinates (rho, t): rho is the signed
distance to the core, t in [0, 1) runs along it, and the metric is
drho^2 + l^2 cosh^2(rho) dt^2.  The maximal embedded half-width is
w(l) = arcsinh(1/sinh(l/2)), so e^w ~ 4/l as l -> 0.  The "modified"
half-width w - 2 leaves a unit-width shell inside the thick part just
outside the collar.  All closed forms below are exercised against an
independent high-precision oracle in the tests.

Distances between collar points have the closed form

    d = 2 asinh(sqrt(sinh^2((rho1 - rho2) / 2)
                     + cosh(rho1) cosh(rho2) sinh^2(l s / 2))),

with s = |dt - round(dt)| the t-shift to the nearest deck translate of
the second point (dt = t2 - t1).  It is cosh d = cosh rho1 cosh rho2
cosh(l s) - sinh rho1 sinh rho2 rewritten with cosh x - 1 = 2 sinh^2(x/2);
every term under the root is nonnegative, so nothing cancels: on
verify's sampler law the distance is within 5e-16 relative of 50-digit
values, and equal points are at distance exactly 0 (arccosh(1 + x), by
contrast, loses about eps / d absolute as d -> 0).  The array kernel
:func:`collar_distances`, which :func:`shell_detour_lengths` shares,
takes broadcastable numpy arrays of Fermi coordinates and evaluates
them all at once, so a sampler can test thousands of pairs in one call,
and a single pair is a call on scalars.  Both reject a length that is
not positive and finite and coordinates that are not finite.  The two
array functions import numpy when called, so importing this module, or
using only its closed forms, loads no numpy.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def max_half_width(length: float) -> float:
    """Maximal embedded collar half-width arcsinh(1/sinh(l/2)).

    Past l ~ 1420.9, where sinh(l/2) overflows, 1/sinh(l/2) is
    2 e^(-l/2) to double precision; it is formed as 2 y y with
    y = e^(-l/4), so it is rounded only once into the subnormal range
    (and to 0 from l ~ 1489 on).  Below l ~ 1.1e-308, where 1/sinh(l/2)
    overflows, sinh(l/2) is l/2 and arcsinh(x) is log(2x) to double
    precision, so the width is log 4 - log l (712.9 at l = 1e-309).
    """
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    try:
        inverse = 1.0 / math.sinh(0.5 * length)
    except OverflowError:
        y = math.exp(-0.25 * length)
        return math.asinh(2.0 * y * y)
    except ZeroDivisionError:  # l/2 rounds to 0 at the least subnormal
        inverse = math.inf
    if inverse == math.inf:
        return math.log(4.0) - math.log(length)
    return math.asinh(inverse)


def modified_half_width(length: float) -> float:
    """Half-width shrunk by 2, floored at zero: max(0, w(l) - 2)."""
    return max(0.0, max_half_width(length) - 2.0)


def collar_volume(length: float, half_width: float) -> float:
    """Area 2 l sinh(w) of the collar of half-width w.

    Past w ~ 710.5, where sinh(w) overflows, e^(-w) is nothing beside
    e^w, and the area is exp(w + log l): finite for the widths of
    curves shorter than 1e-308.
    """
    if half_width < 0.0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    try:
        return 2.0 * length * math.sinh(half_width)
    except OverflowError:
        return math.exp(half_width + math.log(length))


def shell_volume(length: float, half_width: float) -> float:
    """Area 2 l (sinh(w+1) - sinh(w)) of the unit shell outside half-width w.

    Past w ~ 709.5, where sinh(w+1) overflows, the area is
    (e - 1) exp(w + log l), as in :func:`collar_volume`.
    """
    if half_width < 0.0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    try:
        return 2.0 * length * (math.sinh(half_width + 1.0) - math.sinh(half_width))
    except OverflowError:
        return (math.e - 1.0) * math.exp(half_width + math.log(length))


def gudermannian(w: float) -> float:
    """gd(w) = 2 arctan(tanh(w/2)) = integral of sech over [0, w]."""
    return 2.0 * math.atan(math.tanh(0.5 * w))


# -------------------------------------------------------------------
# distances
# -------------------------------------------------------------------

def _finite_array(name: str, value, positive: bool = False) -> np.ndarray:
    """``value`` as a float array; ValueError naming ``name`` at its first bad entry."""
    import numpy as np

    value = np.asarray(value, dtype=float)
    ok = np.isfinite(value)
    if positive:
        ok &= value > 0.0
    if not ok.all():
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {float(value[~ok][0])}")
    return value


def _checked_pairs(rho1, t1, rho2, t2, length) -> tuple[np.ndarray, ...]:
    """The arguments of the distance kernels as float arrays, each checked."""
    return (
        _finite_array("rho1", rho1),
        _finite_array("t1", t1),
        _finite_array("rho2", rho2),
        _finite_array("t2", t2),
        _finite_array("length", length, positive=True),
    )


def _shift(t1, t2) -> np.ndarray:
    """s = |dt - round(dt)| in [0, 1/2]: the t-shift to the nearest deck translate."""
    import numpy as np

    dt = t2 - t1
    return np.abs(dt - np.round(dt))


def _distances(rho1, cosh_rho1, rho2, shift, length) -> np.ndarray:
    """The closed-form distance of the module docstring, given cosh rho1 and s."""
    import numpy as np

    radial = np.sinh(0.5 * (rho1 - rho2))
    circular = np.sinh(0.5 * length * shift)
    return 2.0 * np.arcsinh(
        np.sqrt(radial * radial + cosh_rho1 * np.cosh(rho2) * (circular * circular))
    )


def collar_distances(rho1, t1, rho2, t2, length) -> np.ndarray:
    """Geodesic distances between collar points, element-wise over arrays.

    The points (rho1, t1) and (rho2, t2) may lie on either side of the
    core; the distance is taken to the nearest deck translate of the
    second point (see the module docstring for the formula).
    """
    import numpy as np

    rho1, t1, rho2, t2, length = _checked_pairs(rho1, t1, rho2, t2, length)
    return _distances(rho1, np.cosh(rho1), rho2, _shift(t1, t2), length)


def _shell_pairs(rho1, cosh_rho1, rho2, t1, t2, length) -> tuple[np.ndarray, np.ndarray]:
    """(direct, detour) of :func:`shell_detour_lengths` on checked input, given cosh rho1."""
    import numpy as np

    shift = _shift(t1, t2)
    direct = _distances(rho1, cosh_rho1, rho2, shift, length)
    detour = shift * length * cosh_rho1 + np.abs(rho2 - rho1)
    return direct, detour


def shell_detour_lengths(rho1, rho2, t1, t2, length) -> tuple[np.ndarray, np.ndarray]:
    """(direct, detour) arrays for same-side shell point pairs.

    The arguments broadcast against each other like numpy arrays, and
    element j describes the pair (rho1, t1), (rho2, t2) on a collar of
    core length ``length``.  The detour follows the equidistant circle
    at rho1 (arc length s l cosh rho1, with s the circular t-difference
    of the module docstring) and then the radial segment |rho2 - rho1|.
    For admissible shells and pairs at direct distance <= epsilon the
    detour is at most 5x direct.  A negative rho, a coordinate that is
    not finite or a length that is not positive and finite raises
    ValueError.
    """
    import numpy as np

    rho1, t1, rho2, t2, length = _checked_pairs(rho1, t1, rho2, t2, length)
    if np.any(rho1 < 0.0) or np.any(rho2 < 0.0):
        raise ValueError("shell points must lie on one side of the core (rho >= 0)")
    return _shell_pairs(rho1, np.cosh(rho1), rho2, t1, t2, length)
