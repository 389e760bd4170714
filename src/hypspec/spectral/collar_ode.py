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
Gauss-Legendre quadrature with 4N + 32 nodes on [0, 1].  The rule comes
from Newton's method on the Legendre recurrence (see _gauss_legendre),
in O(N) memory and with no eigensolve; its weights are within about
1e-13 relative of a 40-digit reference for N <= 64 and 5e-12 for the
2080-node rule.

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
The largest solve, a 512 x 512 matrix on 2080 nodes, costs about 0.1 s and
28 MB the first time (the rules and cos tables of all six basis sizes,
17 MB of them the largest table) and about 17 ms after that.  Each
matrix is the sum of two strided views of its moments, plus its kinetic
diagonal through a strided view, so no index array is built or cached.
A result more than 1e-9 relative below the floor cannot come from a
correct solve and raises ArithmeticError; a width below about 3.63e-153,
where the first round's kinetic term overflows, raises ValueError.
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
# Newton passes allowed per quadrature rule; from Tricomi's guesses every
# rule of 1 to 2080 nodes takes 3 steps and stops at the 4th pass
_NEWTON_STEPS = 8


class ExtrapolationWarning(UserWarning):
    """The Ritz values did not converge to 1e-10 within the basis cap J_MAX."""


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, element-wise, -1 < x < 1."""
    prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        prev, p = p, ((2 * k + 1) / (k + 1)) * x * p - (k / (k + 1)) * prev
    # (1 - x^2) P_n' = n (P_{n-1} - x P_n), with 1 - x^2 formed without cancellation
    return p, n * (prev - x * p) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence, run on the nonnegative
    nodes at once from Tricomi's guesses (Hale and Townsend, SIAM J.
    Sci. Comput. 35, 2013), until every step is below the ulp of 1;
    O(n) memory and no eigensolve.  The weight 2 / ((1 - x^2) P_n'(x)^2)
    at a rounded node is off by the relative error 2 x dx / (1 - x^2),
    large next to +-1, so it is corrected by the node's last Newton step
    dx.  The negative half mirrors the positive one, so nodes and
    weights are exactly symmetric.
    """
    k = np.arange((n + 1) // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[0] = 0.0  # the middle node of an odd rule, a fixed point of the iteration
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        if np.max(np.abs(step)) <= np.spacing(1.0):
            break
        x -= step
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    weights = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * step / one_minus_x2)
    x -= step
    tail = slice(n % 2, None)
    return (
        np.concatenate((-x[tail][::-1], x)),
        np.concatenate((weights[tail][::-1], weights)),
    )


@functools.lru_cache(maxsize=None)
def _moment_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes s_q on [0, 1] and weights times cos(m pi s_q), m < 2n.

    The rule is the (4n + 32)-point Gauss-Legendre rule of
    :func:`_gauss_legendre` mapped to [0, 1].  Cached per basis size;
    the solve uses at most the six sizes 2 * J_START ... 2 * J_MAX.
    The table is built in place, one (4n + 32) x 2n array.  The arrays
    are read-only.
    """
    x, weights = _gauss_legendre(4 * n + 32)
    s = 0.5 * (x + 1.0)
    table = np.outer(s, np.arange(2 * n))
    table *= np.pi
    np.cos(table, out=table)
    table *= 0.5 * weights[:, None]
    s.flags.writeable = table.flags.writeable = False
    return s, table


def _toeplitz_plus_hankel(moments: np.ndarray, n: int) -> np.ndarray:
    """0.25 (m_|p-q| + m_(p+q+1)) for p, q < n, one n x n matrix per row of moments.

    Both terms are strided views of a contiguous copy of the moments, so
    no index array is built and nothing is gathered.  The Toeplitz term
    walks the mirrored row m_(n-1) ... m_1 m_0 m_1 ... m_(n-1) from its
    middle, down along p and up along q; the Hankel term walks
    m_1 ... m_(2n-1) up along both.  The ndarray constructor checks that
    each view lies inside its buffer.
    """
    k = moments.shape[0]
    moments = np.ascontiguousarray(moments)
    mirrored = np.concatenate((moments[:, n - 1 : 0 : -1], moments[:, :n]), axis=1)
    step = moments.itemsize
    toeplitz = np.ndarray(
        (k, n, n), buffer=mirrored, offset=step * (n - 1), strides=(step * (2 * n - 1), -step, step)
    )
    hankel = np.ndarray((k, n, n), buffer=moments, offset=step, strides=(step * 2 * n, step, step))
    matrices = toeplitz + hankel
    matrices *= 0.25
    return matrices


def _ritz_pair(half_widths: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values of the J and 2J problems, one row per width."""
    n = 2 * j
    s, table = _moment_table(n)
    decay = np.exp(-2.0 * np.outer(half_widths, s))
    sech2 = 4.0 * decay / (1.0 + decay) ** 2
    # a stack of row-vector products: one matrix product over all widths
    # would round a one-width call differently from a batch
    moments = (sech2[:, None, :] @ table)[:, 0]
    matrices = _toeplitz_plus_hankel(moments, n)
    # the kinetic diagonal 1/4 + ((2p + 1) pi / 2w)^2, added through a strided view
    odd_pi = np.arange(1, 2 * n, 2) * math.pi
    matrices.reshape(-1, n * n)[:, :: n + 1] += 0.25 + (odd_pi / (2.0 * half_widths[:, None])) ** 2
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
    # the first round's largest kinetic term ((4 J_START - 1) pi / 2w)^2 must be finite
    with np.errstate(over="ignore"):
        tiny = widths[np.isinf(((4 * J_START - 1) * math.pi / (2.0 * widths)) ** 2)]
    if tiny.size:
        raise ValueError(
            f"half_width {tiny[0]} is too small: the J={J_START} kinetic term overflows"
        )
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
    floors = 0.25 + (math.pi / (2.0 * widths)) ** 2
    unresolved = estimates > RITZ_RTOL * values
    below = values < floors * (1.0 - 1e-9)
    for i in np.flatnonzero(unresolved | below).tolist():
        w, lam, err, floor = (float(a[i]) for a in (widths, values, estimates, floors))
        if unresolved[i]:
            warnings.warn(
                f"collar eigenvalue at half_width={w!r} not resolved at J={j}: "
                f"{lam!r} with error estimate {err:.3g} (> {RITZ_RTOL:g} relative)",
                ExtrapolationWarning,
                stacklevel=2,
            )
        if below[i]:
            raise ArithmeticError(
                f"collar eigenvalue {lam!r} at half_width={w!r} is below the floor {floor!r}"
            )
    return values, estimates
