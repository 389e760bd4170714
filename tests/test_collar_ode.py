"""Collar Dirichlet eigenvalues against frozen independent solves.

The frozen values below were produced by an independent dense
second-order solve (numpy.linalg.eigvalsh on the full similarity-
transformed matrix) with its own Richardson step, run at n = 3000 and
n = 6000; they agree with the finite-difference oracle in
``collar_fd.py`` to better than 1e-9.  The library's Ritz solve is
checked against that oracle at 1e-9.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hypspec
import hypspec.spectral.collar_ode as collar_ode
from collar_fd import radial_mode_lambda1, richardson_lambda1
from hypspec.collars import max_half_width, modified_half_width
from hypspec.spectral import (
    ExtrapolationWarning,
    assemble_report,
    collar_dirichlet_lambda1_batch,
)
from hypspec.surfaces import ChainFamilyParams, build_chain_family

# (length, half_width) -> lambda_1, frozen from the independent solver;
# the k = 0 solve takes the half-width alone
FROZEN = {
    (0.05, 1.0): 2.940201109,
    (0.1, 1.0): 2.940201109,
    (0.5, 1.0): 2.940201109,
    (0.05, 2.0): 1.041985797,
    (0.1, 2.0): 1.041985797,
    (0.5, 2.0): 1.041985797,
}


def test_frozen_grid_values():
    values, _ = collar_dirichlet_lambda1_batch([w for _, w in FROZEN])
    for value, expect in zip(values, FROZEN.values()):
        assert value == pytest.approx(expect, rel=1e-6)


def test_frozen_values_at_maximal_width():
    # the third row of the sweep pins w to the embedding bound w_max(l)
    cases = {
        0.05: 0.476160856,
        0.1: 0.545795589,
        0.5: 0.989120898,
    }
    values, _ = collar_dirichlet_lambda1_batch([max_half_width(ell) for ell in cases])
    for value, expect in zip(values, cases.values()):
        assert value == pytest.approx(expect, rel=1e-6)


def test_everything_exceeds_one_quarter():
    widths = [w for _, w in FROZEN] + [max_half_width(ell) for ell in (0.05, 0.1, 0.5)]
    values, _ = collar_dirichlet_lambda1_batch(widths)
    assert np.all(values > 0.25)


def test_rigorous_lower_bound_quarter_plus_pi_over_2w_sq():
    # lambda >= 1/4 + (pi / 2w)^2 exactly (potential >= 1/4, Dirichlet
    # interval of length 2w); the solver must respect it to tolerance
    widths = (1.0, 2.0, 4.0, 12.0)
    values, _ = collar_dirichlet_lambda1_batch(widths)
    for w, val in zip(widths, values):
        floor = 0.25 + (math.pi / (2.0 * w)) ** 2
        assert val >= floor * (1 - 1e-6)


def test_monotone_decreasing_in_width():
    vals, _ = collar_dirichlet_lambda1_batch([0.5, 1.0, 2.0, 3.0, 3.6])
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_wide_collar_frozen_value():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        val = collar_dirichlet_lambda1_batch([12.0])[0][0]
    assert val == pytest.approx(0.2953407709512648, rel=1e-9)
    # and it still clears the rigorous floor 1/4 + (pi/24)^2
    assert val > 0.25 + (math.pi / 24.0) ** 2 - 1e-12


def test_very_wide_collar_approaches_one_quarter_from_above():
    # frozen from the finite-difference oracle's n = 8192 / 16384 pair;
    # the basis is doubled until converged, so no warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        val = collar_dirichlet_lambda1_batch([100.0])[0][0]
    assert val == pytest.approx(0.2509311642908836, rel=1e-9)
    assert 0.25 < val < 0.251


def test_modified_width_mode_used_by_reports():
    w = modified_half_width(0.09)
    assert collar_dirichlet_lambda1_batch([w])[0][0] == pytest.approx(
        1.20094353769434, rel=1e-9
    )


def test_radial_modes_increase_with_k():
    ell, w, n = 0.1, 2.0, 256
    vals = [radial_mode_lambda1(ell, w, k, n) for k in range(4)]
    for a, b in zip(vals, vals[1:]):
        assert b > a
    # the k = 1 potential alone dwarfs the k = 0 eigenvalue at small l
    assert vals[1] > vals[0] + (2 * math.pi / (ell * math.cosh(w))) ** 2 * 0.5
    # collar_dirichlet_lambda1_batch solves k = 0 only; the discrete modes
    # must stay ordered on the oracle's grids, at the report collar and
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
    ref = collar_dirichlet_lambda1_batch([w])[0][0]
    e1 = abs(radial_mode_lambda1(ell, w, 0, 128) - ref)
    e2 = abs(radial_mode_lambda1(ell, w, 0, 256) - ref)
    assert e1 / e2 == pytest.approx(4.0, abs=0.3)


def test_input_validation():
    with pytest.raises(ValueError):
        collar_dirichlet_lambda1_batch([0.0])
    with pytest.raises(ValueError):
        collar_dirichlet_lambda1_batch([-1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            collar_dirichlet_lambda1_batch([bad])
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            collar_dirichlet_lambda1_batch([1.0, bad, 2.0])
    values, estimates = collar_dirichlet_lambda1_batch([])
    assert values.shape == estimates.shape == (0,)


@pytest.mark.parametrize(
    "w",
    [1.0, modified_half_width(0.09), 2.0, max_half_width(0.05), 8.0, 12.0],
)
def test_matches_finite_difference_oracle(w):
    assert collar_dirichlet_lambda1_batch([w])[0][0] == pytest.approx(
        richardson_lambda1(w, 1024), rel=1e-9
    )


@pytest.mark.parametrize("w", [30.0, 100.0])
def test_matches_finite_difference_oracle_on_wide_collars(w):
    # n = 1024 is too coarse here; the fine pair agrees with the Ritz
    # value to about 1e-11
    assert collar_dirichlet_lambda1_batch([w])[0][0] == pytest.approx(
        richardson_lambda1(w, 8192), rel=1e-9
    )


def test_ritz_values_fall_as_the_basis_grows():
    # min-max: every Ritz value bounds the eigenvalue from above and the
    # J x J block's value bounds the 2J value; equal up to rounding once
    # converged
    widths = np.array([1.0, 4.0, 12.0, 30.0, 100.0])
    previous = None
    for j in (8, 16, 32, 64, 128):
        coarse, fine = collar_ode._ritz_pair(widths, j)
        assert np.all(fine <= coarse * (1 + 1e-13))
        if previous is not None:
            assert np.all(coarse <= previous * (1 + 1e-13))
        previous = fine


@pytest.mark.parametrize(
    "w, schedule",
    [(1.7, [8]), (2.3, [8]), (3.0, [8]), (3.85, [8]), (4.38, [8, 16]), (8.0, [8, 16])],
)
def test_basis_schedule(monkeypatch, w, schedule):
    # J = 8 meets RITZ_RTOL up to w ~ 3.89, which holds every report width
    # but the widest; wider collars double once more
    seen = []
    ritz_pair = collar_ode._ritz_pair

    def recording(widths, j):
        seen.append(j)
        return ritz_pair(widths, j)

    monkeypatch.setattr(collar_ode, "_ritz_pair", recording)
    collar_dirichlet_lambda1_batch([w])
    assert seen == schedule


def test_values_match_a_larger_basis():
    # every width stops at a basis whose value agrees with the J = 32
    # solve far inside the 1e-10 contract
    widths = np.linspace(0.2, 9.0, 201)
    values, _ = collar_dirichlet_lambda1_batch(widths)
    reference = collar_ode._ritz_pair(widths, 32)[1]
    assert np.all(np.abs(values - reference) <= 1e-12 * reference)


def test_batch_equals_scalar_wrapper_bit_for_bit():
    # each width solved alone, as a batch of one, gets its batch value
    rng = np.random.default_rng(7)
    widths = np.concatenate([rng.uniform(0.3, 9.0, 40), [12.0, 16.0, 30.0]])
    values, estimates = collar_dirichlet_lambda1_batch(widths)
    assert [collar_dirichlet_lambda1_batch([w])[0][0] for w in widths] == values.tolist()
    for size in (1, 2, 5, 17):
        pick = rng.choice(widths.size, size, replace=False)
        assert collar_dirichlet_lambda1_batch(widths[pick])[0].tolist() == values[pick].tolist()
    assert np.all(estimates <= collar_ode.RITZ_RTOL * values)


def test_reports_solve_collars_in_one_batch():
    report = assemble_report(build_chain_family(ChainFamilyParams(genus=10, core_length=0.09)))
    assert report.collar_modes
    w = modified_half_width(0.09)
    want = collar_dirichlet_lambda1_batch([w])[0][0]
    assert all(m.lambda1 == want for m in report.collar_modes if m.half_width == w)


def test_warning_fires_only_at_the_basis_cap(monkeypatch):
    monkeypatch.setattr(collar_ode, "J_MAX", 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        collar_dirichlet_lambda1_batch([2.0])  # resolved at J = 8
    with pytest.warns(ExtrapolationWarning, match=r"half_width=12\.0 .*error estimate") as caught:
        values, estimates = collar_dirichlet_lambda1_batch([2.0, 12.0])
    assert len(caught) == 1
    assert estimates[1] > collar_ode.RITZ_RTOL * values[1]
    assert f"{estimates[1]:.3g}" in str(caught[0].message)
    # the capped value is still an upper bound above the converged one
    monkeypatch.undo()
    assert values[1] >= collar_dirichlet_lambda1_batch([12.0])[0][0]


def test_a_value_below_the_floor_raises(monkeypatch):
    # 1/4 + (pi / 2w)^2 bounds every collar eigenvalue from below, so a
    # solve that lands under it is broken, not merely inaccurate
    def below_floor(widths, j):
        floor = 0.25 + (np.pi / (2.0 * widths)) ** 2
        return floor * (1 - 1e-6), floor * (1 - 1e-6)

    monkeypatch.setattr(collar_ode, "_ritz_pair", below_floor)
    with pytest.raises(ArithmeticError, match="below the floor"):
        collar_dirichlet_lambda1_batch([2.0])


def test_importing_the_package_does_not_load_scipy_linalg():
    script = (
        "import sys\n"
        "import hypspec, hypspec.cli\n"
        "print('scipy.linalg' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
        "from hypspec.spectral import collar_dirichlet_lambda1_batch\n"
        "print(repr(float(collar_dirichlet_lambda1_batch([2.0])[0][0])))\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hypspec.cli.main(['bounds', '--family', 'chain', '--genus', '6',\n"
        "                             '--length', '0.09'])\n"
        "print(code, 'scipy' in sys.modules)\n"
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
    imports, value, after = done.stdout.splitlines()
    assert imports == "False False"
    assert float(value) == collar_dirichlet_lambda1_batch([2.0])[0][0]
    assert after == "0 False"
