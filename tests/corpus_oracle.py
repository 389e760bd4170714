"""One-function-at-a-time oracle for the energy-check corpora.

Every function is evaluated on its own grid and (for the cutoff corpus)
checked against its shell budget on its own.  The crossing oracle takes
its parameters from the library's whole-array draws, one array per
parameter for the whole corpus, then builds the functions one by one,
each as the 2-D product ``poly.T @ wave`` of its three radial
polynomials and its three waves; the cutoff oracle draws each
function's four parameters with their own ``uniform`` calls, as the
library did before it drew them as one array, and holds each function
as its radial profile times its circular wave, so that its floor (the
core mass) is measured in the arithmetic of the library's factors.
``hypspec.spectral.corpus`` must reproduce their node values, floors
and generator state exactly.

:func:`three_einsum_crossing_corpus` is the crossing sampler as the
library had it before it formed each stack with one matrix product:
three exact ``kri,kit->krt`` products added in turn.  It rounds
differently (BLAS may fuse a multiply and an add), so it is the drift
reference, compared within a tolerance.
"""
import math

import numpy as np

from hypspec.collars import max_half_width
from hypspec.spectral import CollarGridFunction, dirichlet_energy, l2_norm_sq
from hypspec.spectral.gridfun import _grid

CROSSING_LENGTHS = (0.05, 0.1, 0.5)
CROSSING_SHAPES = tuple(
    (ell, w) for ell in CROSSING_LENGTHS for w in (1.0, 2.0, max_half_width(ell))
)
_MAX_TRIG_DEGREE = 3


def _trig_polynomial(ell: float, half_width: float, rho_coeffs, freqs, phases):
    """Smooth band-limited f(rho, t): low-degree polynomials in rho times trig in t."""
    rho, t = _grid(half_width, False, 128, 32)
    degree = len(rho_coeffs) - 1
    x = rho / half_width
    poly = np.stack([sum(rho_coeffs[j, m] * x**j for j in range(degree + 1)) for m in range(3)])
    wave = np.cos(2.0 * math.pi * freqs[:, None] * t + phases[:, None])
    return CollarGridFunction(ell, half_width, False, 128, 32, poly.T, wave)


def _draw_crossing(rng: np.random.Generator, count: int):
    """The crossing parameters, drawn as the library draws them.

    Every degree (uniform on 1..3), every coefficient (N(0, 1), four
    rows of three per function, rows above the degree unused), every
    frequency triple, then every phase triple.
    """
    degrees = rng.integers(1, _MAX_TRIG_DEGREE + 1, size=count)
    coeffs = rng.standard_normal((count, _MAX_TRIG_DEGREE + 1, 3))
    freqs = rng.integers(0, 3, size=(count, 3))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, 3))
    return degrees, coeffs, freqs, phases


def crossing_corpus(rng: np.random.Generator, count: int):
    """``count`` single grid functions, function k on shape k % 9."""
    degrees, coeffs, freqs, phases = _draw_crossing(rng, count)
    out = []
    for k in range(count):
        ell, w = CROSSING_SHAPES[k % len(CROSSING_SHAPES)]
        degree = int(degrees[k])
        out.append(_trig_polynomial(ell, w, coeffs[k, : degree + 1], freqs[k], phases[k]))
    return out


def three_einsum_crossing_corpus(rng: np.random.Generator, count: int):
    """The crossing corpus summed term by term: one stack of node values per shape."""
    degrees, coeffs, freqs, phases = _draw_crossing(rng, count)
    coeffs[np.arange(_MAX_TRIG_DEGREE + 1) > degrees[:, None]] = 0.0
    out = []
    step = len(CROSSING_SHAPES)
    for s, (_, w) in enumerate(CROSSING_SHAPES[:count]):
        c = coeffs[s::step, :, :, None, None]
        n = freqs[s::step, :, None, None]
        phi = phases[s::step, :, None, None]
        rho, t = _grid(w, False, 128, 32)
        rho, t = rho[:, None], t[None, :]
        powers = [(rho / w) ** j for j in range(_MAX_TRIG_DEGREE + 1)]
        total = np.zeros((len(c), rho.size, t.size))
        for m in range(3):
            poly = sum(c[:, j, m] * powers[j] for j in range(_MAX_TRIG_DEGREE + 1))
            wave = np.cos(2.0 * math.pi * n[:, m] * t + phi[:, m])
            total += np.einsum("kri,kit->krt", poly, wave)
        out.append(total)
    return out


def _plateau_profile(half_width: float, taper_start: float, residual: float):
    """1 on the plateau, cosine taper down to ``residual`` before the wall."""
    taper_end = half_width

    def base(rho):
        a = np.abs(rho)
        s = np.clip((a - taper_start) / (taper_end - taper_start), 0.0, 1.0)
        return residual + (1.0 - residual) * 0.5 * (1.0 + np.cos(math.pi * s))

    return base


def cutoff_corpus(rng: np.random.Generator, count: int, *, delta=1.0 / 64.0):
    """``count`` pairs (f, c) of single grid functions, function k on shape k % 4.

    Each f is held as its (rows, 1) profile times its (1, n_t) wave, as
    the library holds its stacks, so its floor c is measured in the same
    arithmetic.
    """
    shapes = [(0.05, 2.0), (0.1, 2.0), (0.1, 3.0), (0.5, 1.5)]
    out = []
    for k in range(count):
        ell, w = shapes[k % len(shapes)]
        sigma = float(rng.uniform(0.02, 0.06))
        taper_start = float(rng.uniform(0.3, 0.6)) * w
        modulation = float(rng.uniform(0.0, 0.2))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        rho, t = _grid(w, True, 192, 32)
        while True:
            base = _plateau_profile(w, taper_start, sigma)
            wave = 1.0 + modulation * np.cos(2.0 * math.pi * t + phase)
            f = CollarGridFunction(ell, w, True, 192, 32, base(rho)[:, None], wave[None, :])
            c = l2_norm_sq(f, "core")
            budget = 0.9 * delta * c
            if l2_norm_sq(f, "shell") <= budget and dirichlet_energy(f, "shell") <= budget:
                break
            sigma *= 0.5
            modulation *= 0.5
        out.append((f, c))
    return out
