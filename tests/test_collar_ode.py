"""Collar Dirichlet eigenvalues against frozen independent solves.

The frozen values below were produced by an independent dense
second-order solve (numpy.linalg.eigvalsh on the full similarity-
transformed matrix) with its own Richardson step, run at n = 3000 and
n = 6000; they agree with the tridiagonal path to better than 1e-9.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypspec
from hypspec.collars import max_half_width, modified_half_width
from hypspec.spectral import (
    ExtrapolationWarning,
    collar_dirichlet_lambda1,
    radial_mode_lambda1,
)

# (length, half_width) -> lambda_1, frozen from the independent solver
FROZEN = {
    (0.05, 1.0): 2.940201109,
    (0.1, 1.0): 2.940201109,
    (0.5, 1.0): 2.940201109,
    (0.05, 2.0): 1.041985797,
    (0.1, 2.0): 1.041985797,
    (0.5, 2.0): 1.041985797,
}


def test_frozen_grid_values():
    for (ell, w), expect in FROZEN.items():
        assert collar_dirichlet_lambda1(ell, w) == pytest.approx(expect, rel=1e-6)


def test_frozen_values_at_maximal_width():
    # the third row of the sweep pins w to the embedding bound w_max(l)
    cases = {
        0.05: 0.476160856,
        0.1: 0.545795589,
        0.5: 0.989120898,
    }
    for ell, expect in cases.items():
        w = max_half_width(ell)
        assert collar_dirichlet_lambda1(ell, w) == pytest.approx(expect, rel=1e-6)


def test_kzero_mode_is_length_independent():
    # with k = 0 the length drops out of the radial problem entirely,
    # bit for bit: report caches collar eigenvalues by width alone
    vals = [collar_dirichlet_lambda1(ell, 1.0) for ell in (0.01, 0.05, 0.1, 0.5, 1.0)]
    for v in vals[1:]:
        assert v == vals[0]


def test_everything_exceeds_one_quarter():
    for (ell, w) in FROZEN:
        assert collar_dirichlet_lambda1(ell, w) > 0.25
    for ell in (0.05, 0.1, 0.5):
        assert collar_dirichlet_lambda1(ell, max_half_width(ell)) > 0.25


def test_rigorous_lower_bound_quarter_plus_pi_over_2w_sq():
    # lambda >= 1/4 + (pi / 2w)^2 exactly (potential >= 1/4, Dirichlet
    # interval of length 2w); the solver must respect it to tolerance
    import warnings

    for ell, w in ((0.1, 1.0), (0.1, 2.0), (0.05, 4.0), (0.1, 12.0)):
        floor = 0.25 + (math.pi / (2.0 * w)) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            val = collar_dirichlet_lambda1(ell, w)
        assert val >= floor * (1 - 1e-6)


def test_monotone_decreasing_in_width():
    ell = 0.1
    vals = [collar_dirichlet_lambda1(ell, w) for w in (0.5, 1.0, 2.0, 3.0, 3.6)]
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_wide_collar_frozen_value():
    with pytest.warns(ExtrapolationWarning):
        val = collar_dirichlet_lambda1(0.1, 12.0, n=1024)
    assert val == pytest.approx(0.2953407709512648, rel=1e-9)
    # and it still clears the rigorous floor 1/4 + (pi/24)^2
    assert val > 0.25 + (math.pi / 24.0) ** 2 - 1e-12


def test_very_wide_collar_approaches_one_quarter_from_above():
    # at this width the grid pair cannot agree to 1e-6, and says so
    with pytest.warns(ExtrapolationWarning):
        val = collar_dirichlet_lambda1(0.1, 100.0, n=2048)
    assert val == pytest.approx(0.2509311633070955, rel=1e-9)
    assert 0.25 < val < 0.251


def test_modified_width_mode_used_by_reports():
    w = modified_half_width(0.09)
    assert collar_dirichlet_lambda1(0.09, w) == pytest.approx(
        1.20094353769434, rel=1e-9
    )


def test_radial_modes_increase_with_k():
    ell, w, n = 0.1, 2.0, 256
    vals = [radial_mode_lambda1(ell, w, k, n) for k in range(4)]
    for a, b in zip(vals, vals[1:]):
        assert b > a
    # the k = 1 potential alone dwarfs the k = 0 eigenvalue at small l
    assert vals[1] > vals[0] + (2 * math.pi / (ell * math.cosh(w))) ** 2 * 0.5
    # collar_dirichlet_lambda1 solves k = 0 only; the discrete modes
    # must stay ordered on the grids it uses, at the report collar and
    # across the verify grid
    cases = [(0.09, modified_half_width(0.09))]
    for ell in (0.05, 0.1, 0.5):
        cases += [(ell, 1.0), (ell, 2.0), (ell, max_half_width(ell))]
    for ell, w in cases:
        for n in (1024, 2048):
            vals = [radial_mode_lambda1(ell, w, k, n) for k in range(4)]
            for a, b in zip(vals, vals[1:]):
                assert a <= b, (ell, w, n, vals)


def test_richardson_is_second_order():
    # error(n) ~ C / n^2: consecutive grid errors shrink by ~4
    ell, w = 0.1, 2.0
    ref = collar_dirichlet_lambda1(ell, w, n=2048)
    e1 = abs(radial_mode_lambda1(ell, w, 0, 128) - ref)
    e2 = abs(radial_mode_lambda1(ell, w, 0, 256) - ref)
    assert e1 / e2 == pytest.approx(4.0, abs=0.3)


def test_input_validation():
    with pytest.raises(ValueError):
        radial_mode_lambda1(0.1, -1.0, 0, 64)
    with pytest.raises(ValueError):
        radial_mode_lambda1(-0.1, 1.0, 0, 64)
    with pytest.raises(ValueError):
        radial_mode_lambda1(0.1, 1.0, 0, 4)
    with pytest.raises(ValueError):
        collar_dirichlet_lambda1(0.1, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            radial_mode_lambda1(0.1, bad, 0, 64)
        with pytest.raises(ValueError, match="length must be positive and finite"):
            radial_mode_lambda1(bad, 1.0, 0, 64)
        with pytest.raises(ValueError, match="length must be positive and finite"):
            collar_dirichlet_lambda1(bad, 1.0)


def test_importing_the_package_does_not_load_scipy_linalg():
    script = (
        "import sys\n"
        "import hypspec, hypspec.cli\n"
        "print('scipy.linalg' in sys.modules)\n"
        "from hypspec.spectral import collar_dirichlet_lambda1\n"
        "print(repr(collar_dirichlet_lambda1(0.1, 2.0)))\n"
    )
    package_root = str(Path(hypspec.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert done.returncode == 0, done.stderr
    loaded_on_import, value = done.stdout.split()
    assert loaded_on_import == "False"
    assert float(value) == collar_dirichlet_lambda1(0.1, 2.0)
