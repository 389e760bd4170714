"""Finite-difference oracle for the collar's radial Dirichlet problems.

Each circular mode k of the collar d rho^2 + l^2 cosh^2(rho) dt^2 with
walls at rho = +-w is the Sturm-Liouville problem

    -(cosh(rho) u')' / cosh(rho) + (2 pi k / (l cosh rho))^2 u = lam u,
    u(-w) = u(w) = 0,

discretized here by second-order finite differences on a uniform grid of
n intervals.  The similarity transform by sqrt(cosh) makes the matrix
symmetric tridiagonal, so the smallest eigenvalue comes from a targeted
LAPACK solve.  The library solves k = 0 by a Ritz expansion instead;
this independent discretization checks it.
"""
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal


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


def richardson_lambda1(half_width: float, n: int) -> float:
    """k = 0 eigenvalue extrapolated from the grid pair (n, 2n)."""
    coarse = radial_mode_lambda1(1.0, half_width, 0, n)
    fine = radial_mode_lambda1(1.0, half_width, 0, 2 * n)
    return (4.0 * fine - coarse) / 3.0
