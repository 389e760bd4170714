"""Quadrature on collar grids against closed-form integrals.

Energies on the cylinder drho^2 + l^2 cosh^2(rho) dt^2 have elementary
antiderivatives for the probe functions used here, so the discrete
scheme is validated end to end, including its second-order rate.
"""

import dataclasses
import math
import tracemalloc

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
)
from hypspec.spectral.gridfun import _grid
from hypspec.verify import check_crossing_energy, check_cutoff_extension

ELL = 0.1
W = 2.0


def _sample(radial, circular=np.ones_like, *, has_shell=False, n_rho=256, n_t=64):
    """The separable probe radial(rho) * circular(t) on the collar of length ELL, width W.

    ``radial`` gets the rho nodes as a column and gives (..., n_rho, r)
    profiles, ``circular`` the t nodes as a row and gives (..., r, n_t)
    waves: rank r sums r terms, and leading axes make a stack.
    """
    rho, t = _grid(W, has_shell, n_rho, n_t)
    return CollarGridFunction(
        ELL, W, has_shell, rho, t, radial(rho[:, None]), circular(t[None, :])
    )


def richardson(make, n_rho, n_t):
    coarse = make(n_rho, n_t)
    fine = make(2 * n_rho, 2 * n_t)
    return (4.0 * fine - coarse) / 3.0


def test_energy_of_linear_radial_function():
    # f = rho: |grad f|^2 = 1, energy = 2 l sinh(W)
    def make(nr, nt):
        return dirichlet_energy(_sample(lambda r: r, n_rho=nr, n_t=nt))

    exact = 2.0 * ELL * math.sinh(W)
    assert richardson(make, 256, 64) == pytest.approx(exact, rel=1e-6)


def test_energy_of_circular_wave():
    # f = sin(2 pi t): energy = 4 pi^2 gd(W) / l
    def make(nr, nt):
        f = _sample(np.ones_like, lambda t: np.sin(2 * np.pi * t), n_rho=nr, n_t=nt)
        return dirichlet_energy(f)

    exact = 4.0 * math.pi**2 * gudermannian(W) / ELL
    assert richardson(make, 256, 64) == pytest.approx(exact, rel=1e-6)


def test_energy_and_mass_of_sinh():
    # f = sinh(rho): energy = 2 l (sinh W + sinh^3 W / 3),
    #                mass   = 2 l sinh^3 W / 3
    def make_e(nr, nt):
        return dirichlet_energy(_sample(np.sinh, n_rho=nr, n_t=nt))

    def make_m(nr, nt):
        return l2_norm_sq(_sample(np.sinh, n_rho=nr, n_t=nt))

    s = math.sinh(W)
    assert richardson(make_e, 256, 64) == pytest.approx(
        2.0 * ELL * (s + s**3 / 3.0), rel=1e-6
    )
    assert richardson(make_m, 256, 64) == pytest.approx(
        2.0 * ELL * s**3 / 3.0, rel=1e-6
    )


def test_scheme_is_second_order():
    def make(nr, nt):
        return dirichlet_energy(_sample(np.sinh, n_rho=nr, n_t=nt))

    exact = 2.0 * ELL * (math.sinh(W) + math.sinh(W) ** 3 / 3.0)
    e1 = abs(make(128, 32) - exact)
    e2 = abs(make(256, 64) - exact)
    assert e1 / e2 == pytest.approx(4.0, abs=0.25)


def test_constant_has_zero_energy_and_area_mass():
    # ones times ones: the radial differences and the wave's circular
    # difference are zero, so every energy is exactly zero
    f = _sample(np.ones_like)
    assert dirichlet_energy(f) == 0.0
    assert l2_norm_sq(f) == pytest.approx(2.0 * ELL * math.sinh(W), rel=1e-3)
    shell = _sample(np.ones_like, has_shell=True)
    for region in ("all", "core", "shell"):
        assert dirichlet_energy(shell, region) == 0.0
    assert l2_norm_sq(shell) == pytest.approx(2.0 * ELL * math.sinh(W + 1.0), rel=1e-3)


def test_grid_functions_keep_read_only_copies_of_their_factors():
    f = _factored_stack(True, 3, count=4)
    poly = f.radial.copy()
    base = np.empty((poly.shape[0], 3, poly.shape[1]))
    base.transpose(0, 2, 1)[...] = poly
    waves = f.circular.copy()
    g = f.with_factors(base.transpose(0, 2, 1), waves[:, :, :])
    energy, mass = dirichlet_energy(g, "shell"), l2_norm_sq(g, "shell")
    # writes to the caller's arrays, views of them included, reach no
    # factor and no root taken from one
    assert base.flags.writeable and waves.flags.writeable
    base *= 2.0
    waves[:, 0] = 0.0
    assert dirichlet_energy(g, "shell").tobytes() == energy.tobytes()
    assert l2_norm_sq(g, "shell").tobytes() == mass.tobytes()
    assert g.values.tobytes() == f.values.tobytes()
    for factor in (g.radial, g.circular):
        with pytest.raises(ValueError, match="read-only"):
            factor[0] = 1.0


def test_regions_partition_the_collar():
    f = _sample(np.cosh, lambda t: np.cos(2 * np.pi * t), has_shell=True)
    assert l2_norm_sq(f, "core") + l2_norm_sq(f, "shell") == pytest.approx(
        l2_norm_sq(f, "all"), rel=1e-12
    )
    assert dirichlet_energy(f, "core") + dirichlet_energy(f, "shell") == pytest.approx(
        dirichlet_energy(f, "all"), rel=1e-12
    )


def test_region_validation():
    plain = _sample(lambda r: r)
    with pytest.raises(ValueError):
        l2_norm_sq(plain, "shell")
    with pytest.raises(ValueError):
        dirichlet_energy(plain, "rim")


def test_shell_grid_hits_walls_exactly():
    f = _sample(lambda r: r, has_shell=True)
    i_lo, i_hi = f.wall_indices()
    assert f.rho[i_lo] == -W
    assert f.rho[i_hi] == W
    assert f.rho[0] == pytest.approx(-W - 1.0, rel=1e-15)
    assert f.rho[-1] == pytest.approx(W + 1.0, rel=1e-15)


def test_crossing_check_on_odd_ramp():
    # f = sign(rho) min(|rho|, 1): gap 2, bound l, energy 2 l sinh(1)
    f = _sample(lambda r: np.sign(r) * np.minimum(np.abs(r), 1.0))
    chk = crossing_energy_check(f)
    assert chk.passed
    assert chk.crossing_gap == pytest.approx(2.0, rel=1e-12)
    assert chk.bound == pytest.approx(ELL, rel=1e-12)
    assert chk.energy == pytest.approx(2.0 * ELL * math.sinh(1.0), rel=1e-2)
    assert chk.energy >= chk.bound


def test_crossing_check_trivial_for_constants():
    chk = crossing_energy_check(_sample(lambda r: np.full_like(r, 3.0)))
    assert chk.passed
    assert chk.crossing_gap == 0.0
    assert chk.bound == 0.0


def test_crossing_gap_minimizes_over_wall_pairs():
    # gap varies with t; the check must take the minimum
    chk = crossing_energy_check(_sample(lambda r: r / W, lambda t: 1.0 + np.cos(2 * np.pi * t)))
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
    f = _sample(np.ones_like, has_shell=True)
    floor = l2_norm_sq(f, "core")
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f, 1.0 / 64.0, floor)
    assert err.value.which == "shell-mass"


def test_cutoff_rejects_steep_wall_taper():
    # plateau dropping to zero within 2e-3 of the wall: tiny shell mass
    # but enormous shell energy
    drop = 2e-3

    def fn(r):
        return np.clip((W + drop - np.abs(r)) / drop, 0.0, 1.0)

    f = _sample(fn, has_shell=True, n_rho=2048)
    floor = 0.9 * l2_norm_sq(f, "core")
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f, 1.0 / 64.0, floor)
    assert err.value.which == "shell-energy"


def test_cutoff_rejects_thin_core_mass():
    f = _sample(lambda r: np.exp(-(r**2)) * 1e-3, has_shell=True)
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f, 1.0 / 64.0, 1.0)
    assert err.value.which == "core-mass"


def test_cutoff_parameter_validation():
    f = _sample(np.ones_like, has_shell=True)
    plain = _sample(np.ones_like)
    with pytest.raises(ValueError):
        cutoff_extension_check(plain, 1.0 / 64.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_extension_check(f, 0.2, 1.0)  # delta >= 1/16
    with pytest.raises(ValueError):
        cutoff_extension_check(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_extension_check(f, np.nan, 1.0)
    # a floor must be positive and finite, so no NaN measure can pass it
    for floor in (-1.0, 0.0, np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="mass_floor must be positive and finite"):
            cutoff_extension_check(f, 1.0 / 64.0, floor)


def test_grid_function_shape_checks():
    f = _sample(lambda r: r, n_rho=32, n_t=8)
    with pytest.raises(ValueError):
        f.with_factors(np.zeros((3, 3)), f.circular)
    with pytest.raises(ValueError):
        f.with_factors(f.radial, np.zeros((1, 9)))
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ell must be positive and finite"):
            dataclasses.replace(f, ell=bad)
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            dataclasses.replace(f, half_width=bad)
        for has_shell in (False, True):
            with pytest.raises(ValueError, match="half_width must be positive and finite"):
                _grid(bad, has_shell, 32, 8)
    with pytest.raises(ValueError):
        _sample(lambda r: r, n_t=2)


def test_grid_nodes_must_belong_to_the_collar():
    # walls and regions are read off the nodes, so nodes built for another
    # width or shell setting are refused before any energy is taken
    def make(half_width, has_shell, rho, t):
        return CollarGridFunction(
            ELL, half_width, has_shell, rho, t, np.ones((rho.size, 1)), np.ones((1, t.size))
        )

    plain, shell = _grid(1.0, False, 32, 8), _grid(1.0, True, 32, 8)
    make(1.0, False, *plain)
    make(1.0, True, *shell)
    for half_width, has_shell, (rho, t) in [
        (2.0, False, plain),  # walls would land on +-1
        (1.0, True, plain),  # shell energies failed with IndexError
        (2.0, True, plain),
        (1.0, False, shell),
        (2.0, True, shell),
        (1.0, True, (np.linspace(-2.0, 2.0, 36), shell[1])),  # +-w not nodes
        (1.0, False, (plain[0][None, :], plain[1])),
        (1.0, False, (plain[0][:1], plain[1])),
    ]:
        with pytest.raises(ValueError, match="rho nodes do not span"):
            make(half_width, has_shell, rho, t)


# -------------------------------------------------------------------
# stacks of functions on one grid
# -------------------------------------------------------------------

def _factored_stack(has_shell, rank, count=25, seed=5, n_t=16):
    """``count`` random separable functions of rank ``rank`` on one grid, as one stack.

    Function k is the sum over m < rank of a quadratic in rho times
    cos(2 pi n_m t + phi_m): radial factor (count, n_rho, rank), circular
    factor (count, rank, n_t).
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 1, 3, rank))
    n = rng.integers(0, 3, size=(count, rank, 1))
    phase = rng.uniform(0.0, 2 * np.pi, size=(count, rank, 1))
    return _sample(
        lambda r: a[:, :, 0] + a[:, :, 1] * r + a[:, :, 2] * r**2,
        lambda t: np.cos(2 * np.pi * n * t + phase),
        has_shell=has_shell,
        n_rho=96,
        n_t=n_t,
    )


def _take(f, index):
    """The functions ``index`` of the stack ``f`` (a circular factor without stack axes
    is shared)."""
    circular = f.circular[index] if f.circular.ndim > 2 else f.circular
    return f.with_factors(f.radial[index], circular)


STACK_GRIDS = pytest.mark.parametrize(
    "has_shell, regions",
    [(True, ("all", "core", "shell")), (False, ("all", "core"))],
    ids=["shell-grid", "plain-grid"],
)


@STACK_GRIDS
def test_stacked_energies_equal_one_function_calls(has_shell, regions):
    stack = _factored_stack(has_shell, 3)
    for region in regions:
        for energy in (l2_norm_sq, dirichlet_energy):
            stacked = energy(stack, region)
            assert stacked.shape == (25,)
            for k in range(25):
                single = energy(_take(stack, k), region)
                assert np.ndim(single) == 0
                assert stacked[k] == single, (region, energy.__name__, k)


@STACK_GRIDS
def test_energies_do_not_depend_on_the_stack(has_shell, regions):
    # stacks of rank 1 and 3: every reduction runs per function
    for stack in (_factored_stack(has_shell, 1), _factored_stack(has_shell, 3)):
        for region in regions:
            for energy in (l2_norm_sq, dirichlet_energy):
                stacked = energy(stack, region)
                reversed_ = energy(_take(stack, slice(None, None, -1)), region)
                for k in range(25):
                    alone = energy(_take(stack, slice(k, k + 1)), region)
                    assert alone.shape == (1,)
                    assert alone[0] == stacked[k] == reversed_[24 - k]
                    assert energy(_take(stack, k), region) == stacked[k]
        chk = crossing_energy_check(stack)
        for k in (0, 7, 24):
            one = crossing_energy_check(_take(stack, slice(k, k + 1)))
            assert one.energy[0] == chk.energy[k]
            assert one.crossing_gap[0] == chk.crossing_gap[k]
            assert one.passed[0] == chk.passed[k]


def test_cutoff_floors_are_the_checks_own_core_masses():
    # the corpus measures each floor on the stack of its last halving
    # round; the check measures the core mass again on the whole stack,
    # and must get the floor back bit for bit
    for seed in (0, 3, 41):
        for f, floors in cutoff_corpus(np.random.default_rng(seed), 100):
            chk = cutoff_extension_check(f, 1.0 / 64.0, floors)
            assert chk.core_mass.tobytes() == floors.tobytes(), (seed, f.ell, f.half_width)


def test_cutoff_check_on_a_stack_names_the_first_violating_function():
    delta = 1.0 / 64.0
    f, floors = cutoff_corpus(np.random.default_rng(3), 40, delta=delta)[1]
    assert cutoff_extension_check(f, delta, floors).passed.all()
    # the functions are edited through their factors, so the others keep
    # the arithmetic their floors were measured in
    radial, circular = f.radial.copy(), f.circular.copy()
    radial[3], circular[3] = 2.0, 1.0  # flat into the shell: breaks the shell-mass budget only
    radial[6] *= 1e-3  # breaks the core-mass floor
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f.with_factors(radial, circular), delta, floors)
    assert (err.value.which, err.value.index) == ("shell-mass", (3,))
    assert err.value.bound == delta * floors[3]
    assert "function (3,)" in str(err.value)

    radial[1] *= 1e-3
    with pytest.raises(HypothesisNotMet) as err:
        cutoff_extension_check(f.with_factors(radial, circular), delta, floors)
    assert (err.value.which, err.value.index) == ("core-mass", (1,))
    assert err.value.bound == floors[1]


def test_stack_shape_checks():
    stack = _factored_stack(False, 2, count=3)
    assert stack.values.shape == (3, stack.rho.size, stack.t.size)
    with pytest.raises(ValueError):
        stack.with_factors(stack.radial, np.zeros((3, 2, stack.t.size + 1)))
    with pytest.raises(ValueError):
        stack.with_factors(stack.radial, np.zeros((3, 3, stack.t.size)))
    shell = _factored_stack(True, 1, count=3)
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
    delta = 1/64; ``count=None`` gives a single function.  Held as the
    (k, n_rho, 1) profiles times the (k, 1, n_t) waves.
    """
    rng = np.random.default_rng(seed)
    k = 1 if count is None else count
    taper = rng.uniform(0.3, 0.6, size=(k, 1, 1)) * W
    residual = rng.uniform(0.0005, 0.001, size=(k, 1, 1))
    mod = rng.uniform(0.0, 0.2, size=(k, 1, 1))
    phase = rng.uniform(0.0, 2 * np.pi, size=(k, 1, 1))

    def radial(r):
        s = np.clip((np.abs(r) - taper) / (W - taper), 0.0, 1.0)
        base = residual + (1.0 - residual) * 0.5 * (1.0 + np.cos(np.pi * s))
        # negative for rho < -1/2, so the two walls differ in sign
        return base * np.sign(r + 0.5)

    def circular(t):
        return 1.0 + mod * np.cos(2 * np.pi * t + phase)

    f = _sample(radial, circular, has_shell=has_shell, n_rho=96, n_t=n_t)
    return f if count is not None else _take(f, 0)


def _kernel_cases(has_shell, count, n_t):
    """Random stacks of rank 1 and 3 and plateaus, stacked or single."""
    k = count or 1
    stacks = (
        _factored_stack(has_shell, 1, k, n_t=n_t),
        _factored_stack(has_shell, 3, k, n_t=n_t),
        _plateau(has_shell, k, n_t),
    )
    return [f if count is not None else _take(f, 0) for f in stacks]


def _odd(f):
    """f(rho, t) - f(-rho, t), whose walls differ for every t."""
    return f.with_factors(f.radial - f.radial[..., ::-1, :], f.circular)


def _with_nan(f, row):
    """f with a NaN at radial row ``row`` of its last function."""
    radial = f.radial.copy()
    radial[tuple(n - 1 for n in radial.shape[:-2]) + (row,)] = np.nan
    return f.with_factors(radial, f.circular)


def _broken(f):
    """f with its last function flat into the shell (shell mass), and in a
    stack of several its first function's core mass just under its floor."""
    radial = f.radial.copy()
    k = radial.shape[:-2]
    radial[tuple(n - 1 for n in k)] = 2.0
    if k and k[0] > 1:
        radial[(0,) * len(k)] *= 1 - 1e-6
    return f.with_factors(radial, f.circular)


@KERNEL_N_T
@KERNEL_CASES
@pytest.mark.parametrize("has_shell", [True, False], ids=["shell-grid", "plain-grid"])
def test_energies_equal_the_oracle_bit_for_bit(has_shell, count, n_t):
    for f in _kernel_cases(has_shell, count, n_t):
        for region in ("all", "core", "shell") if has_shell else ("all", "core"):
            assert _same_bits(l2_norm_sq(f, region), gridfun_oracle.l2_norm_sq(f, region))
            assert _same_bits(
                dirichlet_energy(f, region), gridfun_oracle.dirichlet_energy(f, region)
            ), (region, count, n_t)


@KERNEL_N_T
@KERNEL_CASES
@pytest.mark.parametrize("has_shell", [True, False], ids=["shell-grid", "plain-grid"])
def test_crossing_check_equals_the_oracle_bit_for_bit(has_shell, count, n_t):
    for f in _kernel_cases(has_shell, count, n_t):
        for g in (f, _odd(f)):
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
    last = tuple(n - 1 for n in f.radial.shape[:-2])
    # a NaN in a core row, or in the shell's outer row, misses a hypothesis
    # instead of passing as a check that failed
    nan_core, nan_shell = _with_nan(f, f.rho.size // 2), _with_nan(f, 0)
    cases = ((_broken(f), floors), (f, floors * 1.5), (nan_core, floors), (nan_shell, floors))
    for g, c in cases:
        want = gridfun_oracle.cutoff_extension_check(g, delta, c)
        with pytest.raises(HypothesisNotMet) as err:
            cutoff_extension_check(g, delta, c)
        assert ("missed", err.value.which, err.value.index) == want
    assert gridfun_oracle.cutoff_extension_check(nan_core, delta, floors) == (
        "missed", "core-mass", last
    )
    assert gridfun_oracle.cutoff_extension_check(nan_shell, delta, floors) == (
        "missed", "shell-mass", last
    )


# -------------------------------------------------------------------
# drift from the earlier formulas, and accuracy
# -------------------------------------------------------------------

DRIFT_RTOL = 1e-13


def _assert_near(got, want, what, rtol=DRIFT_RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    if want.dtype == bool:
        assert np.array_equal(got, want), what
    else:
        assert np.all(np.abs(got - want) <= rtol * np.abs(want)), what


@KERNEL_N_T
@KERNEL_CASES
def test_pre_divided_weights_drift_from_the_dividing_formula_below_1e_13(count, n_t):
    # the cases of the four bit-for-bit oracle tests above, against the
    # same factored sums with every difference divided by its step
    delta = 1.0 / 64.0
    for has_shell in (True, False):
        for f in _kernel_cases(has_shell, count, n_t):
            for region in ("all", "core", "shell") if has_shell else ("all", "core"):
                _assert_near(
                    dirichlet_energy(f, region),
                    gridfun_oracle.dirichlet_energy(f, region, formula="dividing"),
                    (has_shell, region),
                )
            for g in (f, _odd(f)):
                chk = crossing_energy_check(g)
                want = gridfun_oracle.crossing_energy_check(g, formula="dividing")
                for name, value in want.items():
                    _assert_near(getattr(chk, name), value, name)

    f = _plateau(True, count, n_t)
    core_mass = gridfun_oracle.l2_norm_sq(f, "core")
    for floors in (core_mass, 0.9 * core_mass, float(np.min(core_mass))):
        chk = cutoff_extension_check(f, delta, floors)
        want = gridfun_oracle.cutoff_extension_check(f, delta, floors, formula="dividing")
        assert isinstance(want, dict), want
        for name, value in want.items():
            _assert_near(getattr(chk, name), value, name)
    for g, c in ((_broken(f), core_mass), (f, core_mass * 1.5)):
        want = gridfun_oracle.cutoff_extension_check(g, delta, c, formula="dividing")
        with pytest.raises(HypothesisNotMet) as err:
            cutoff_extension_check(g, delta, c)
        assert ("missed", err.value.which, err.value.index) == want


# The factored sums against the node-value formula they replace, which
# differences the grid of node values.  Over the verify corpora of seeds
# 0-320 the largest drift is 1.18e-13 on crossing energies (seed 163) and
# 4.16e-12 on cutoff fields (a shell energy at seed 41).  At the cutoff
# case the node values lose the shell's small circular differences to
# rounding and the factored value is the accurate one; at the crossing
# case both lie within 1e-13 of long double (the test after next).
CROSSING_GRID_DRIFT = 1.5e-13
CUTOFF_GRID_DRIFT = 5e-12


@KERNEL_N_T
@KERNEL_CASES
def test_factored_sums_drift_from_the_grid_formula_within_stated_bounds(count, n_t):
    for has_shell in (True, False):
        for f in _kernel_cases(has_shell, count, n_t):
            for g in (f, _odd(f)):
                chk = crossing_energy_check(g)
                want = gridfun_oracle.crossing_energy_check(g, formula="grid")
                for name, value in want.items():
                    _assert_near(getattr(chk, name), value, name, CROSSING_GRID_DRIFT)
    f = _plateau(True, count, n_t)
    chk = cutoff_extension_check(f, 1.0 / 64.0, gridfun_oracle.l2_norm_sq(f, "core"))
    for name, value in gridfun_oracle.cutoff_measures(f, formula="grid").items():
        _assert_near(getattr(chk, name), value, name, CUTOFF_GRID_DRIFT)


def test_corpus_energies_drift_from_the_grid_formula_within_stated_bounds():
    # the seeds of the largest drift found on verify's corpora
    for f in crossing_corpus(np.random.default_rng(163), 200):
        chk = crossing_energy_check(f)
        want = gridfun_oracle.crossing_energy_check(f, formula="grid")
        for name, value in want.items():
            _assert_near(getattr(chk, name), value, name, CROSSING_GRID_DRIFT)
    for f, floors in cutoff_corpus(np.random.default_rng(41), 100):
        chk = cutoff_extension_check(f, 1.0 / 64.0, floors)
        for name, value in gridfun_oracle.cutoff_measures(f, formula="grid").items():
            _assert_near(getattr(chk, name), value, name, CUTOFF_GRID_DRIFT)


def test_worst_corpus_energies_are_within_1e_13_of_long_double():
    # crossing: all three frequencies 0, so the three terms cancel along
    # each radial difference; cutoff: a shell whose node values carry the
    # circular differences in their last bits
    f = crossing_corpus(np.random.default_rng(163), 200)[0]
    assert not np.ptp(f.circular[16], axis=-1).any()
    got = dirichlet_energy(f)[16]
    want = gridfun_oracle.longdouble_dirichlet(f)[16]
    assert abs(got - want) <= 1e-13 * want
    f, _ = cutoff_corpus(np.random.default_rng(41), 100)[2]
    got = dirichlet_energy(f, "shell")[22]
    want = gridfun_oracle.longdouble_dirichlet(f, "shell")[22]
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("check", [check_crossing_energy, check_cutoff_extension])
def test_energy_checks_peak_below_1_mb(check):
    # the checks hold factors and peak at about 0.96 MB (crossing, whose
    # corpus list holds the 0.78 MB of all 200 functions' factors) and
    # 0.35 MB (cutoff); the full (k, n_rho, n_t) node grid of a single
    # crossing stack (0.76 MB) would break the bound
    check(np.random.default_rng(0))  # builds the grids and quadratures
    tracemalloc.start()
    try:
        check(np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak
