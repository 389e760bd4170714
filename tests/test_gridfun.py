"""Quadrature on collar grids against closed-form integrals.

Energies on the cylinder drho^2 + l^2 cosh^2(rho) dt^2 have elementary
antiderivatives for the probe functions used here, so the discrete
scheme is validated end to end, including its second-order rate.
"""

import math

import numpy as np
import pytest

from hypspec.collars import gudermannian
from hypspec.spectral import (
    CollarGridFunction,
    HypothesisNotMet,
    crossing_energy_check,
    crossing_corpus,
    cutoff_corpus,
    cutoff_extension_check,
    dirichlet_energy,
    l2_norm_sq,
    sample_collar_function,
)

ELL = 0.1
W = 2.0


def richardson(make, n_rho, n_t):
    coarse = make(n_rho, n_t)
    fine = make(2 * n_rho, 2 * n_t)
    return (4.0 * fine - coarse) / 3.0


def test_energy_of_linear_radial_function():
    # f = rho: |grad f|^2 = 1, energy = 2 l sinh(W)
    def make(nr, nt):
        f = sample_collar_function(ELL, W, lambda r, t: r + 0 * t, n_rho=nr, n_t=nt)
        return dirichlet_energy(f)

    exact = 2.0 * ELL * math.sinh(W)
    assert richardson(make, 256, 64) == pytest.approx(exact, rel=1e-6)


def test_energy_of_circular_wave():
    # f = sin(2 pi t): energy = 4 pi^2 gd(W) / l
    def make(nr, nt):
        f = sample_collar_function(
            ELL, W, lambda r, t: np.sin(2 * np.pi * t) + 0 * r, n_rho=nr, n_t=nt
        )
        return dirichlet_energy(f)

    exact = 4.0 * math.pi**2 * gudermannian(W) / ELL
    assert richardson(make, 256, 64) == pytest.approx(exact, rel=1e-6)


def test_energy_and_mass_of_sinh():
    # f = sinh(rho): energy = 2 l (sinh W + sinh^3 W / 3),
    #                mass   = 2 l sinh^3 W / 3
    def make_e(nr, nt):
        f = sample_collar_function(ELL, W, lambda r, t: np.sinh(r) + 0 * t, n_rho=nr, n_t=nt)
        return dirichlet_energy(f)

    def make_m(nr, nt):
        f = sample_collar_function(ELL, W, lambda r, t: np.sinh(r) + 0 * t, n_rho=nr, n_t=nt)
        return l2_norm_sq(f)

    s = math.sinh(W)
    assert richardson(make_e, 256, 64) == pytest.approx(
        2.0 * ELL * (s + s**3 / 3.0), rel=1e-6
    )
    assert richardson(make_m, 256, 64) == pytest.approx(
        2.0 * ELL * s**3 / 3.0, rel=1e-6
    )


def test_scheme_is_second_order():
    def make(nr, nt):
        f = sample_collar_function(ELL, W, lambda r, t: np.sinh(r) + 0 * t, n_rho=nr, n_t=nt)
        return dirichlet_energy(f)

    exact = 2.0 * ELL * (math.sinh(W) + math.sinh(W) ** 3 / 3.0)
    e1 = abs(make(128, 32) - exact)
    e2 = abs(make(256, 64) - exact)
    assert e1 / e2 == pytest.approx(4.0, abs=0.25)


def test_constant_has_zero_energy_and_area_mass():
    f = sample_collar_function(ELL, W, lambda r, t: 1.0 + 0 * r * t)
    assert dirichlet_energy(f) == 0.0
    assert l2_norm_sq(f) == pytest.approx(2.0 * ELL * math.sinh(W), rel=1e-3)


def test_regions_partition_the_collar():
    f = sample_collar_function(
        ELL, W, lambda r, t: np.cosh(r) * np.cos(2 * np.pi * t), has_shell=True
    )
    assert l2_norm_sq(f, "core") + l2_norm_sq(f, "shell") == pytest.approx(
        l2_norm_sq(f, "all"), rel=1e-12
    )
    assert dirichlet_energy(f, "core") + dirichlet_energy(f, "shell") == pytest.approx(
        dirichlet_energy(f, "all"), rel=1e-12
    )


def test_region_validation():
    plain = sample_collar_function(ELL, W, lambda r, t: r + 0 * t)
    with pytest.raises(ValueError):
        l2_norm_sq(plain, "shell")
    with pytest.raises(ValueError):
        dirichlet_energy(plain, "rim")


def test_shell_grid_hits_walls_exactly():
    f = sample_collar_function(ELL, W, lambda r, t: r + 0 * t, has_shell=True)
    i_lo, i_hi = f.wall_indices()
    assert f.rho[i_lo] == -W
    assert f.rho[i_hi] == W
    assert f.rho[0] == pytest.approx(-W - 1.0, rel=1e-15)
    assert f.rho[-1] == pytest.approx(W + 1.0, rel=1e-15)


def test_crossing_check_on_odd_ramp():
    # f = sign(rho) min(|rho|, 1): gap 2, bound l, energy 2 l sinh(1)
    f = sample_collar_function(
        ELL, W, lambda r, t: np.sign(r) * np.minimum(np.abs(r), 1.0) + 0 * t
    )
    chk = crossing_energy_check(f)
    assert chk.passed
    assert chk.crossing_gap == pytest.approx(2.0, rel=1e-12)
    assert chk.bound == pytest.approx(ELL, rel=1e-12)
    assert chk.energy == pytest.approx(2.0 * ELL * math.sinh(1.0), rel=1e-2)
    assert chk.energy >= chk.bound


def test_crossing_check_trivial_for_constants():
    f = sample_collar_function(ELL, W, lambda r, t: 3.0 + 0 * r * t)
    chk = crossing_energy_check(f)
    assert chk.passed
    assert chk.crossing_gap == 0.0
    assert chk.bound == 0.0


def test_crossing_gap_minimizes_over_wall_pairs():
    # gap varies with t; the check must take the minimum
    f = sample_collar_function(
        ELL,
        W,
        lambda r, t: (r / W) * (1.0 + np.cos(2 * np.pi * t)),
        n_t=64,
    )
    chk = crossing_energy_check(f)
    # at t = 1/2 the factor vanishes, so the minimal gap is ~0
    assert chk.crossing_gap == pytest.approx(0.0, abs=1e-2)
    assert chk.passed


def test_crossing_corpus_all_pass():
    rng = np.random.default_rng(42)
    for f in crossing_corpus(rng, 60):
        chk = crossing_energy_check(f)
        assert chk.passed, (f.ell, f.half_width, chk)


def test_cutoff_corpus_all_pass():
    rng = np.random.default_rng(7)
    delta = 1.0 / 64.0
    for f, floor in cutoff_corpus(rng, 25, delta=delta):
        chk = cutoff_extension_check(f, delta, floor)
        assert chk.passed, chk
        assert chk.shell_mass <= delta * floor
        assert chk.shell_energy <= delta * floor
        assert chk.core_energy >= chk.final_bound
        assert chk.shell_extension_energy <= chk.shell_extension_bound


def test_cutoff_rejects_function_heavy_in_the_shell():
    # constant across core and shell: shell mass breaks the hypothesis
    f = sample_collar_function(ELL, W, lambda r, t: 1.0 + 0 * r * t, has_shell=True)
    floor = l2_norm_sq(f, "core")
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f, 1.0 / 64.0, floor)
    assert err.value.which == "shell-mass"


def test_cutoff_rejects_steep_wall_taper():
    # plateau dropping to zero within 2e-3 of the wall: tiny shell mass
    # but enormous shell energy
    drop = 2e-3

    def fn(r, t):
        return np.clip((W + drop - np.abs(r)) / drop, 0.0, 1.0) + 0 * t

    f = sample_collar_function(ELL, W, fn, has_shell=True, n_rho=2048)
    floor = 0.9 * l2_norm_sq(f, "core")
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f, 1.0 / 64.0, floor)
    assert err.value.which == "shell-energy"


def test_cutoff_rejects_thin_core_mass():
    f = sample_collar_function(
        ELL, W, lambda r, t: np.exp(-(r**2)) * 1e-3 + 0 * t, has_shell=True
    )
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f, 1.0 / 64.0, 1.0)
    assert err.value.which == "core-mass"


def test_cutoff_parameter_validation():
    f = sample_collar_function(ELL, W, lambda r, t: 1.0 + 0 * r * t, has_shell=True)
    plain = sample_collar_function(ELL, W, lambda r, t: 1.0 + 0 * r * t)
    with pytest.raises(ValueError):
        cutoff_extension_check(plain, 1.0 / 64.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_extension_check(f, 0.2, 1.0)  # delta >= 1/16
    with pytest.raises(ValueError):
        cutoff_extension_check(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_extension_check(f, 1.0 / 64.0, -1.0)


def test_grid_function_shape_checks():
    f = sample_collar_function(ELL, W, lambda r, t: r + 0 * t, n_rho=32, n_t=8)
    with pytest.raises(ValueError):
        f.with_values(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sample_collar_function(-1.0, W, lambda r, t: r + 0 * t)
    with pytest.raises(ValueError):
        sample_collar_function(ELL, 0.0, lambda r, t: r + 0 * t)
    with pytest.raises(ValueError):
        sample_collar_function(ELL, W, lambda r, t: r + 0 * t, n_t=2)
