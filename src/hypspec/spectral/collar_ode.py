"""First Dirichlet eigenvalue of a collar via radial reduction.

Separating variables on the cylinder drho^2 + l^2 cosh^2(rho) dt^2
with Dirichlet walls at rho = +-w turns the Laplacian into a family of
Sturm-Liouville problems indexed by the circular mode k:

    -(cosh(rho) u')' / cosh(rho) + (2 pi k / (l cosh rho))^2 u = lam u,
    u(-w) = u(w) = 0.

Each mode is discretized by second-order finite differences on a
uniform grid; the similarity transform by sqrt(cosh) makes the matrix
symmetric tridiagonal, so the smallest eigenvalue comes from a
targeted LAPACK solve.  The mode potential grows pointwise with k,
so by min-max the eigenvalues are nondecreasing in k and the
rotationally symmetric k = 0 mode is the collar's first Dirichlet
eigenvalue; only that mode is solved, on two grids (n and 2n) that
feed a Richardson extrapolation.  Its potential does not involve l,
so the collar eigenvalue depends on the half-width alone.

The substitution u = v / sqrt(cosh) shows the k = 0 potential is
1/4 + sech^2(rho)/4 >= 1/4, so every collar eigenvalue exceeds 1/4,
with equality approached only as w -> infinity.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg import eigh_tridiagonal

DEFAULT_N_RHO = 1024
RICHARDSON_RTOL = 1e-6


class ExtrapolationWarning(UserWarning):
    """Grid pair did not agree to the expected tolerance."""


def radial_mode_lambda1(length: float, half_width: float, k: int, n: int) -> float:
    """Smallest Dirichlet eigenvalue of the mode-k radial problem on one grid."""
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    if n < 8:
        raise ValueError(f"grid needs n >= 8 intervals, got {n}")
    h = 2.0 * half_width / n
    rho = -half_width + h * np.arange(1, n)
    ch = np.cosh(rho)
    ch_plus = np.cosh(rho + 0.5 * h)
    ch_minus = np.cosh(rho - 0.5 * h)
    potential = (2.0 * math.pi * k / (length * ch)) ** 2
    diag = (ch_plus + ch_minus) / (h * h * ch) + potential
    off = -ch_plus[:-1] / (h * h * np.sqrt(ch[:-1] * ch[1:]))
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
    return float(vals[0])


def collar_dirichlet_lambda1(
    length: float, half_width: float, n: int = DEFAULT_N_RHO
) -> float:
    """Richardson-extrapolated first Dirichlet eigenvalue of the collar.

    Only the k = 0 radial mode is solved, and that is exact, not a
    truncation: the mode-k potential (2 pi k / (l cosh rho))^2 grows
    pointwise with k, so by the min-max principle the mode eigenvalues
    are nondecreasing in k and k = 0 attains the minimum.  A warning
    reports the grid pair (n, 2n) when it fails to agree to 1e-6
    relative.
    """
    coarse = radial_mode_lambda1(length, half_width, 0, n)
    fine = radial_mode_lambda1(length, half_width, 0, 2 * n)
    if abs(fine - coarse) > RICHARDSON_RTOL * max(1.0, abs(fine)):
        warnings.warn(
            f"grid pair (n={n}, {2 * n}) differs beyond "
            f"{RICHARDSON_RTOL:g}: {coarse!r} vs {fine!r}",
            ExtrapolationWarning,
            stacklevel=2,
        )
    return (4.0 * fine - coarse) / 3.0
