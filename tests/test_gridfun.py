"""Quadrature on collar grids against closed-form integrals.

Energies on the cylinder drho^2 + l^2 cosh^2(rho) dt^2 have elementary
antiderivatives for the probe functions used here, so the discrete
scheme is validated end to end, including its second-order rate.
"""

import math

import numpy as np
import pytest

import gridfun_oracle
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
    stacks = crossing_corpus(rng, 60)
    assert sum(f.values.shape[0] for f in stacks) == 60
    for f in stacks:
        chk = crossing_energy_check(f)
        assert chk.passed.all(), (f.ell, f.half_width, chk)


def test_cutoff_corpus_all_pass():
    rng = np.random.default_rng(7)
    delta = 1.0 / 64.0
    stacks = cutoff_corpus(rng, 25, delta=delta)
    assert sum(f.values.shape[0] for f, _ in stacks) == 25
    for f, floor in stacks:
        chk = cutoff_extension_check(f, delta, floor)
        assert chk.passed.all(), chk
        assert (chk.shell_mass <= delta * floor).all()
        assert (chk.shell_energy <= delta * floor).all()
        assert (chk.core_energy >= chk.final_bound).all()
        assert (chk.shell_extension_energy <= chk.shell_extension_bound).all()


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


# -------------------------------------------------------------------
# stacks of functions on one grid
# -------------------------------------------------------------------

def _random_stack(has_shell, count=25, seed=5, n_t=16):
    """``count`` smooth random functions on one grid, as one stack."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 4, 1, 1))
    k = rng.integers(0, 3, size=(count, 1, 1))

    def fn(r, t):
        return (a[:, 0] + a[:, 1] * r + a[:, 2] * r**2) * np.cos(
            2 * np.pi * k * t + a[:, 3]
        )

    return sample_collar_function(ELL, W, fn, has_shell=has_shell, n_rho=96, n_t=n_t)


STACK_GRIDS = pytest.mark.parametrize(
    "has_shell, regions",
    [(True, ("all", "core", "shell")), (False, ("all", "core"))],
    ids=["shell-grid", "plain-grid"],
)


@STACK_GRIDS
def test_stacked_energies_equal_one_function_calls(has_shell, regions):
    stack = _random_stack(has_shell)
    for region in regions:
        for energy in (l2_norm_sq, dirichlet_energy):
            stacked = energy(stack, region)
            assert stacked.shape == (25,)
            for k in range(25):
                single = energy(stack.with_values(stack.values[k]), region)
                assert np.ndim(single) == 0
                assert stacked[k] == single, (region, energy.__name__, k)


@STACK_GRIDS
def test_energies_do_not_depend_on_the_stack(has_shell, regions):
    stack = _random_stack(has_shell)
    for region in regions:
        for energy in (l2_norm_sq, dirichlet_energy):
            stacked = energy(stack, region)
            reversed_ = energy(stack.with_values(stack.values[::-1]), region)
            for k in range(25):
                alone = energy(stack.with_values(stack.values[k : k + 1]), region)
                assert alone.shape == (1,)
                assert alone[0] == stacked[k] == reversed_[24 - k]
    chk = crossing_energy_check(stack)
    for k in (0, 7, 24):
        one = crossing_energy_check(stack.with_values(stack.values[k : k + 1]))
        assert one.energy[0] == chk.energy[k]
        assert one.crossing_gap[0] == chk.crossing_gap[k]
        assert one.passed[0] == chk.passed[k]


def test_cutoff_check_on_a_stack_names_the_first_violating_function():
    delta = 1.0 / 64.0
    f, floors = cutoff_corpus(np.random.default_rng(3), 40, delta=delta)[1]
    assert cutoff_extension_check(f, delta, floors).passed.all()
    values = f.values.copy()
    values[3] = 2.0  # flat into the shell: breaks the shell-mass budget only
    values[6] *= 1e-3  # breaks the core-mass floor
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f.with_values(values), delta, floors)
    assert (err.value.which, err.value.index) == ("shell-mass", (3,))
    assert err.value.bound == delta * floors[3]
    assert "function (3,)" in str(err.value)

    values[1] *= 1e-3
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f.with_values(values), delta, floors)
    assert (err.value.which, err.value.index) == ("core-mass", (1,))
    assert err.value.bound == floors[1]


def test_stack_shape_checks():
    stack = _random_stack(False, count=3)
    assert stack.values.shape == (3, stack.rho.size, stack.t.size)
    with pytest.raises(ValueError):
        stack.with_values(np.zeros((3, stack.rho.size, stack.t.size + 1)))
    shell = _random_stack(True, count=3)
    with pytest.raises(ValueError):
        cutoff_extension_check(shell, 1.0 / 64.0, np.array([1.0, -1.0, 1.0]))


# -------------------------------------------------------------------
# kernels against the per-call oracle, bit for bit
# -------------------------------------------------------------------

KERNEL_CASES = pytest.mark.parametrize(
    "count", [None, 1, 3, 25], ids=["single", "stack1", "stack3", "stack25"]
)
# an n_t that is not a power of two catches a 1/dt folded into the weights
KERNEL_N_T = pytest.mark.parametrize("n_t", [32, 33, 48])


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _plateau(has_shell, count, n_t, seed=9):
    """Plateaus that taper inside the core to a small residual, times a t-wave.

    With floors at the core mass they meet the cutoff hypotheses at
    delta = 1/64; ``count=None`` gives a single function.
    """
    rng = np.random.default_rng(seed)
    k = 1 if count is None else count
    taper = rng.uniform(0.3, 0.6, size=(k, 1, 1)) * W
    residual = rng.uniform(0.0005, 0.001, size=(k, 1, 1))
    mod = rng.uniform(0.0, 0.2, size=(k, 1, 1))
    phase = rng.uniform(0.0, 2 * np.pi, size=(k, 1, 1))

    def fn(r, t):
        s = np.clip((np.abs(r) - taper) / (W - taper), 0.0, 1.0)
        base = residual + (1.0 - residual) * 0.5 * (1.0 + np.cos(np.pi * s))
        # negative for rho < -1/2, so the two walls differ in sign
        return base * (1.0 + mod * np.cos(2 * np.pi * t + phase)) * np.sign(r + 0.5)

    f = sample_collar_function(ELL, W, fn, has_shell=has_shell, n_rho=96, n_t=n_t)
    return f if count is not None else f.with_values(f.values[0])


@KERNEL_N_T
@KERNEL_CASES
@pytest.mark.parametrize("has_shell", [True, False], ids=["shell-grid", "plain-grid"])
def test_energies_equal_the_oracle_bit_for_bit(has_shell, count, n_t):
    smooth = _random_stack(has_shell, count or 1, n_t=n_t)
    if count is None:
        smooth = smooth.with_values(smooth.values[0])
    for f in (smooth, _plateau(has_shell, count, n_t)):
        for region in ("all", "core", "shell") if has_shell else ("all", "core"):
            assert _same_bits(l2_norm_sq(f, region), gridfun_oracle.l2_norm_sq(f, region))
            assert _same_bits(
                dirichlet_energy(f, region), gridfun_oracle.dirichlet_energy(f, region)
            ), (region, count, n_t)


@KERNEL_N_T
@KERNEL_CASES
@pytest.mark.parametrize("has_shell", [True, False], ids=["shell-grid", "plain-grid"])
def test_crossing_check_equals_the_oracle_bit_for_bit(has_shell, count, n_t):
    f = _plateau(has_shell, count, n_t)
    for g in (f, f.with_values(f.values - f.values[..., ::-1, :])):
        chk = crossing_energy_check(g)
        want = gridfun_oracle.crossing_energy_check(g)
        for name, value in want.items():
            assert _same_bits(getattr(chk, name), value), name


@KERNEL_N_T
@KERNEL_CASES
def test_cutoff_check_equals_the_oracle_bit_for_bit(count, n_t):
    delta = 1.0 / 64.0
    f = _plateau(True, count, n_t)
    core_mass = gridfun_oracle.l2_norm_sq(f, "core")
    for floors in (core_mass, 0.9 * core_mass, float(np.min(core_mass))):
        chk = cutoff_extension_check(f, delta, floors)
        want = gridfun_oracle.cutoff_extension_check(f, delta, floors)
        assert isinstance(want, dict), want
        for name, value in want.items():
            assert _same_bits(getattr(chk, name), value), name
        assert np.all(chk.passed)


@KERNEL_N_T
@KERNEL_CASES
def test_cutoff_check_names_the_oracles_first_miss(count, n_t):
    delta = 1.0 / 64.0
    f = _plateau(True, count, n_t)
    floors = gridfun_oracle.l2_norm_sq(f, "core")
    values = f.values.copy()
    k = values.shape[:-2]
    last = tuple(n - 1 for n in k)
    values[last] = 2.0  # flat into the shell: shell mass
    if count is not None and count > 1:
        values[(0,) * len(k)] *= 1 - 1e-6  # core mass, in an earlier function
    for g, c in ((f.with_values(values), floors), (f, floors * 1.5)):
        want = gridfun_oracle.cutoff_extension_check(g, delta, c)
        with pytest.raises(HypothesisNotMet) as err:
            cutoff_extension_check(g, delta, c)
        assert ("missed", err.value.which, err.value.index) == want
