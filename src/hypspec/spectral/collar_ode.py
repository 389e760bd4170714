"""First Dirichlet eigenvalue of a collar by a Rayleigh-Ritz solve.

Separating variables on the cylinder drho^2 + l^2 cosh^2(rho) dt^2
with Dirichlet walls at rho = +-w turns the Laplacian into a family of
Sturm-Liouville problems indexed by the circular mode k:

    -(cosh(rho) u')' / cosh(rho) + (2 pi k / (l cosh rho))^2 u = lam u,
    u(-w) = u(w) = 0.

The mode potential grows pointwise with k, so by min-max the
eigenvalues are nondecreasing in k and the rotationally symmetric
k = 0 mode is the collar's first Dirichlet eigenvalue; only that mode
is solved.  Its potential does not involve l, so the collar eigenvalue
depends on the half-width alone.  The substitution u = v / sqrt(cosh)
gives the symmetric form

    -v'' + (1/4 + sech^2(rho) / 4) v = lam v,    v(-w) = v(w) = 0,

whose potential is >= 1/4 on an interval of length 2w, so every
collar eigenvalue is at least the floor 1/4 + (pi / 2w)^2.

The ground state is even, so it is expanded in the even cosines
cos((2j - 1) pi rho / 2w), j = 1..N, which vanish at both walls (the
standard spectral Galerkin method; Boyd, Chebyshev and Fourier
Spectral Methods, 2001).  In this orthogonal basis the kinetic part is
diagonal and the potential is a Toeplitz-plus-Hankel matrix of the
cosine moments int_0^1 sech^2(w s) cos(m pi s) ds, m < 2N, computed by
Gauss-Legendre quadrature with 4N + 32 nodes on [0, 1].

By min-max the smallest eigenvalue of the N x N matrix (the Ritz
value) is an upper bound that falls as N grows.  The leading J x J
block of the N = 2J matrix is the J problem, so one assembly gives
lam_J >= lam_2J >= lam; lam_2J is returned and lam_J - lam_2J is its
one-sided error estimate.  The solve starts at J = 8 and doubles J for
the widths whose estimate exceeds 1e-10 relative, up to J_MAX = 256,
which resolves every w up to about 200 (w = 300 is not).  At the cap a
width that is still unresolved keeps its J_MAX value and an
ExtrapolationWarning gives its estimate.  Widths up to about 3.89 (all
but the widest collars of a report) stop at J = 8 and take one 16 x 16
and one 8 x 8 eigensolve (about 25 and 13 us for one width on an x86_64
core).  Widths up to about 8.1 go on to J = 16, one 32 x 32 and one
16 x 16 solve more (about 65 and 25 us); every width past the J = 8
round runs the rounds a J = 16 start would run, on the same matrices.
The largest solve, a 512 x 512 matrix on 2080 nodes, costs about 1.7 s and
80 MB the first time (for the quadrature nodes) and 40 ms after that.
A result more than 1e-9 relative below the floor cannot come from a
correct solve and raises ArithmeticError.
"""
from __future__ import annotations

import functools
import math
import warnings

import numpy as np

J_START = 8
J_MAX = 256
RITZ_RTOL = 1e-10
# matrix entries per stacked eigensolve: bounds the memory of a batch
_STACK_ENTRIES = 1 << 20


class ExtrapolationWarning(UserWarning):
    """The Ritz values did not converge to 1e-10 within the basis cap J_MAX."""


@functools.lru_cache(maxsize=None)
def _moment_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes s_q on [0, 1] and weights times cos(m pi s_q), m < 2n.

    Cached per basis size; the solve uses at most the six sizes
    2 * J_START ... 2 * J_MAX.  The arrays are read-only.
    """
    # imported here so that importing the package does not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    x, weights = leggauss(4 * n + 32)
    s = 0.5 * (x + 1.0)
    table = 0.5 * weights[:, None] * np.cos(np.pi * np.outer(s, np.arange(2 * n)))
    s.flags.writeable = table.flags.writeable = False
    return s, table


def _ritz_pair(half_widths: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values of the J and 2J problems, one row per width."""
    n = 2 * j
    s, table = _moment_table(n)
    decay = np.exp(-2.0 * np.outer(half_widths, s))
    sech2 = 4.0 * decay / (1.0 + decay) ** 2
    # a stack of row-vector products: one matrix product over all widths
    # would round a one-width call differently from a batch
    moments = (sech2[:, None, :] @ table)[:, 0]
    i = np.arange(n)
    matrices = 0.25 * (moments[:, abs(i[:, None] - i)] + moments[:, i[:, None] + i + 1])
    matrices[:, i, i] += 0.25 + ((2 * i + 1) * math.pi / (2.0 * half_widths[:, None])) ** 2
    fine = np.linalg.eigvalsh(matrices)[:, 0]
    coarse = np.linalg.eigvalsh(matrices[:, :j, :j])[:, 0]
    return coarse, fine


def collar_dirichlet_lambda1_batch(half_widths) -> tuple[np.ndarray, np.ndarray]:
    """First Dirichlet eigenvalue of the collar of each half-width, with error estimates.

    Returns ``(values, estimates)``: each value is a Ritz upper bound
    lam_2J and its estimate is lam_J - lam_2J >= 0 (see the module
    docstring).  Widths are solved together, one stack per basis size,
    and a width's result does not depend on the other widths passed:
    a single width is solved as a batch of one, bit for bit the same.
    """
    widths = np.array(half_widths, dtype=float).reshape(-1)
    bad = widths[~(np.isfinite(widths) & (widths > 0.0))]
    if bad.size:
        raise ValueError(f"half_width must be positive and finite, got {bad[0]}")
    values = np.empty_like(widths)
    estimates = np.empty_like(widths)
    todo = np.arange(widths.size)
    j = J_START
    while todo.size:
        step = max(1, _STACK_ENTRIES // (2 * j) ** 2)
        for lo in range(0, todo.size, step):
            rows = todo[lo : lo + step]
            coarse, fine = _ritz_pair(widths[rows], j)
            values[rows] = fine
            estimates[rows] = np.abs(coarse - fine)
        if j >= J_MAX:
            break
        todo = todo[estimates[todo] > RITZ_RTOL * values[todo]]
        j *= 2
    for w, lam, err in zip(widths.tolist(), values.tolist(), estimates.tolist()):
        if err > RITZ_RTOL * lam:
            warnings.warn(
                f"collar eigenvalue at half_width={w!r} not resolved at J={j}: "
                f"{lam!r} with error estimate {err:.3g} (> {RITZ_RTOL:g} relative)",
                ExtrapolationWarning,
                stacklevel=2,
            )
        floor = 0.25 + (math.pi / (2.0 * w)) ** 2
        if lam < floor * (1.0 - 1e-9):
            raise ArithmeticError(
                f"collar eigenvalue {lam!r} at half_width={w!r} is below the floor {floor!r}"
            )
    return values, estimates

