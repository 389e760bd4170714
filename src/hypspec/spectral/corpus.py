"""Random function corpora for the collar energy inequality checks.

The crossing bound holds for every function on the collar, so it is
exercised on random band-limited trig polynomials over a spread of
collar shapes.  The cutoff bound has hypotheses (core mass at least c,
shell mass and energy at most delta*c), so its corpus is built to
satisfy them: plateau profiles that taper inside the collar to a small
residual level, times a mild oscillation along the core.  Both
generators are pure functions of the supplied RNG.

Function k of a corpus lives on shape ``k % len(shapes)``.  Every
function's parameters are drawn first, as whole arrays over the
corpus; the functions of each shape are then built together as one
stacked :class:`CollarGridFunction`, held by its factors: a crossing
stack as its (k, rows, 3) radial polynomials times its (k, 3, n_t)
waves, a cutoff stack as its (k, rows, 1) profiles times its (k, 1,
n_t) modulations.  No node grid is formed; the energies reduce on the
factors.  The crossing corpus returns the list of its shapes' stacks,
the cutoff corpus the list of its shapes' (stack, floors).
The crossing corpus draws four arrays, in this order: every degree,
every coefficient (four rows per function, those above its degree set
to zero), every frequency triple, every phase triple; each function
has the law of drawing it alone, and only which draw lands in which
function depends on the order.  The cutoff corpus draws its four
parameters per function as one ``random((count, 4))`` array, which
gives the values and generator state of one ``uniform`` call per
parameter and function.  The node values and the floors are those of
sampling each function on its own.

A stack's node values (``values``) are its factors' ``np.matmul``.  For
a crossing stack that is rounded as BLAS rounds the product (it may
fuse a multiply and an add); each function's nodes are those of its
own 2-D product ``poly.T @ wave``, and lie within a few units in the
last place of the term-by-term sum.  For a cutoff stack it is the
exact product of profile and modulation.
"""
from __future__ import annotations

import math

import numpy as np

from ..collars import max_half_width
from .gridfun import CollarGridFunction, _grid, dirichlet_energy, l2_norm_sq

CROSSING_LENGTHS = (0.05, 0.1, 0.5)
CROSSING_SHAPES = tuple(
    (ell, w) for ell in CROSSING_LENGTHS for w in (1.0, 2.0, max_half_width(ell))
)
CROSSING_N_RHO = 128
CROSSING_N_T = 32

CUTOFF_SHAPES = ((0.05, 2.0), (0.1, 2.0), (0.1, 3.0), (0.5, 1.5))
CUTOFF_N_RHO = 192
CUTOFF_N_T = 32

_MAX_TRIG_DEGREE = 3


def crossing_corpus(rng: np.random.Generator, count: int) -> list[CollarGridFunction]:
    """``count`` random smooth functions over (length, width) in a fixed spread.

    Each function is f(rho, t) = sum_m p_m(rho / w) cos(2 pi n_m t + phi_m),
    m = 0, 1, 2, with polynomials p_m of a common random degree 1..3,
    normal coefficients, frequencies n_m in {0, 1, 2} and uniform phases.
    Returns one stack per shape of :data:`CROSSING_SHAPES`.
    """
    degrees = rng.integers(1, _MAX_TRIG_DEGREE + 1, size=count)
    coeffs = rng.standard_normal((count, _MAX_TRIG_DEGREE + 1, 3))
    coeffs[np.arange(_MAX_TRIG_DEGREE + 1) > degrees[:, None]] = 0.0
    freqs = rng.integers(0, 3, size=(count, 3))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, 3))
    out = []
    step = len(CROSSING_SHAPES)
    for s, (ell, w) in enumerate(CROSSING_SHAPES[:count]):
        out.append(_trig_stack(ell, w, coeffs[s::step], freqs[s::step], phases[s::step]))
    return out


def _trig_stack(ell: float, half_width: float, coeffs, freqs, phases) -> CollarGridFunction:
    """One stacked grid function per row of the drawn trig-polynomial parameters."""
    rho, t = _grid(half_width, False, CROSSING_N_RHO, CROSSING_N_T)
    # the radial polynomials, built as (k, 3, rows) one term c_j x^j at
    # a time, so each sum runs along a row of nodes, and handed over
    # transposed as (k, rows, 3); degrees above a function's own have
    # zero coefficients.  einsum forms each term without the iteration
    # buffers of a broadcast multiply
    x = rho / half_width
    poly, term = np.zeros((len(coeffs), 3, rho.size)), np.empty((len(coeffs), 3, rho.size))
    for j in range(_MAX_TRIG_DEGREE + 1):
        poly += np.einsum("km,i->kmi", coeffs[:, j, :], x**j, out=term)
    del term
    # (k, 3, n_t) waves, one row per term m
    waves = np.cos(2.0 * math.pi * freqs[:, :, None] * t + phases[:, :, None])
    return CollarGridFunction(ell, half_width, False, rho, t, poly.transpose(0, 2, 1), waves)


def _plateau_stack(
    ell: float, half_width: float, taper_start, residual, modulation, phase
) -> CollarGridFunction:
    """Plateaus 1 with a cosine taper to ``residual`` at the wall, times a t-modulation.

    The parameters are arrays of shape (k, 1, 1), one entry per function
    of the stack; the factors are the (k, rows, 1) profiles and the
    (k, 1, n_t) modulations.
    """
    rho, t = _grid(half_width, True, CUTOFF_N_RHO, CUTOFF_N_T)
    s = np.clip((np.abs(rho[:, None]) - taper_start) / (half_width - taper_start), 0.0, 1.0)
    base = residual + (1.0 - residual) * 0.5 * (1.0 + np.cos(math.pi * s))
    wave = 1.0 + modulation * np.cos(2.0 * math.pi * t + phase)
    return CollarGridFunction(ell, half_width, True, rho, t, base, wave)


def _uniform(u, lo: float, hi: float):
    """``rng.uniform(lo, hi)`` from ``u = rng.random()``: numpy computes lo + (hi - lo) * u."""
    return lo + (hi - lo) * u


def cutoff_corpus(
    rng: np.random.Generator, count: int, *, delta: float = 1.0 / 64.0
) -> list[tuple[CollarGridFunction, np.ndarray]]:
    """``count`` functions f with floors c satisfying the cutoff hypotheses at ``delta``.

    Each f is a plateau that tapers to a residual level sigma before
    the shell begins (so the shell carries only the small flat part)
    with a gentle t-modulation; c is the measured core mass, making
    the first hypothesis tight by construction.  The residual and the
    modulation are halved until the shell mass and energy sit below
    0.9 * delta * c — the shell budget shrinks like sigma^2 while the
    core mass stays pinned to the plateau, so this terminates fast.
    Returns one pair (stack, floors) per shape of :data:`CUTOFF_SHAPES`;
    each halving round resamples only the stack's functions still over
    budget.
    """
    u = rng.random((count, 4))
    widths = np.array([CUTOFF_SHAPES[k % len(CUTOFF_SHAPES)][1] for k in range(count)])
    params = np.column_stack(
        (
            _uniform(u[:, 0], 0.02, 0.06),
            _uniform(u[:, 1], 0.3, 0.6) * widths,
            _uniform(u[:, 2], 0.0, 0.2),
            _uniform(u[:, 3], 0.0, 2.0 * math.pi),
        )
    )
    out = []
    step = len(CUTOFF_SHAPES)
    for s, (ell, w) in enumerate(CUTOFF_SHAPES[:count]):
        # (k, 1, 1) columns, one row per function of the shape
        sigma, taper_start, modulation, phase = params[s::step].T[:, :, None, None]
        f = _plateau_stack(ell, w, taper_start, sigma, modulation, phase)
        radial, circular = np.empty(f.radial.shape), np.empty(f.circular.shape)
        p = np.arange(len(radial))
        floors = np.empty(p.size)
        while True:
            c = l2_norm_sq(f, "core")
            budget = 0.9 * delta * c
            done = (l2_norm_sq(f, "shell") <= budget) & (dirichlet_energy(f, "shell") <= budget)
            radial[p[done]], circular[p[done]] = f.radial[done], f.circular[done]
            floors[p[done]] = c[done]
            p = p[~done]
            if p.size == 0:
                break
            sigma[p] *= 0.5
            modulation[p] *= 0.5
            f = _plateau_stack(ell, w, taper_start[p], sigma[p], modulation[p], phase[p])
        stack = CollarGridFunction(ell, w, True, f.rho, f.t, radial, circular)
        out.append((stack, floors))
    return out
