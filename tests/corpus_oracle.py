"""One-function-at-a-time oracle for the energy-check corpora.

Every function is evaluated on its own grid and (for the cutoff corpus)
checked against its shell budget on its own.  The crossing oracle takes
its parameters from the library's whole-array draws, one array per
parameter for the whole corpus, then builds the functions one by one;
the cutoff oracle draws each function's four parameters with their own
``uniform`` calls, as the library did before it drew them as one array.
``hypspec.spectral.corpus`` must reproduce their node values, floors
and generator state exactly.
"""
import math

import numpy as np

from hypspec.collars import max_half_width
from hypspec.spectral import dirichlet_energy, l2_norm_sq, sample_collar_function

CROSSING_LENGTHS = (0.05, 0.1, 0.5)
_MAX_TRIG_DEGREE = 3


def _trig_polynomial(rho_coeffs, freqs, phases, half_width: float):
    """Smooth band-limited f(rho, t): low-degree polynomial in rho times trig in t."""
    degree = len(rho_coeffs) - 1

    def fn(rho, t):
        total = 0.0
        for m in range(3):
            poly = sum(
                rho_coeffs[j, m] * (rho / half_width) ** j for j in range(degree + 1)
            )
            total = total + poly * np.cos(2.0 * math.pi * freqs[m] * t + phases[m])
        return total

    return fn


def crossing_corpus(rng: np.random.Generator, count: int):
    """``count`` single grid functions, function k on shape k % 9.

    The draws: every degree (uniform on 1..3), every coefficient
    (N(0, 1), four rows of three per function, rows above the degree
    unused), every frequency triple, then every phase triple.
    """
    degrees = rng.integers(1, _MAX_TRIG_DEGREE + 1, size=count)
    coeffs = rng.standard_normal((count, _MAX_TRIG_DEGREE + 1, 3))
    freqs = rng.integers(0, 3, size=(count, 3))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(count, 3))
    shapes = []
    for ell in CROSSING_LENGTHS:
        for w in (1.0, 2.0, max_half_width(ell)):
            shapes.append((ell, w))
    out = []
    for k in range(count):
        ell, w = shapes[k % len(shapes)]
        degree = int(degrees[k])
        fn = _trig_polynomial(coeffs[k, : degree + 1], freqs[k], phases[k], w)
        out.append(sample_collar_function(ell, w, fn, has_shell=False, n_rho=128, n_t=32))
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
    """``count`` pairs (f, c) of single grid functions, function k on shape k % 4."""
    shapes = [(0.05, 2.0), (0.1, 2.0), (0.1, 3.0), (0.5, 1.5)]
    out = []
    for k in range(count):
        ell, w = shapes[k % len(shapes)]
        sigma = float(rng.uniform(0.02, 0.06))
        taper_start = float(rng.uniform(0.3, 0.6)) * w
        modulation = float(rng.uniform(0.0, 0.2))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        while True:
            base = _plateau_profile(w, taper_start, sigma)

            def fn(rho, t, base=base, modulation=modulation, phase=phase):
                return base(rho) * (1.0 + modulation * np.cos(2.0 * math.pi * t + phase))

            f = sample_collar_function(ell, w, fn, has_shell=True, n_rho=192, n_t=32)
            c = l2_norm_sq(f, "core")
            budget = 0.9 * delta * c
            if l2_norm_sq(f, "shell") <= budget and dirichlet_energy(f, "shell") <= budget:
                break
            sigma *= 0.5
            modulation *= 0.5
        out.append((f, c))
    return out
