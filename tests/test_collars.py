"""Collar geometry against high-precision oracles.

Reference values are recomputed inline with mpmath at 50 digits, so the
tests stay honest if the float implementations drift.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypspec.collars import (
    collar_distances,
    collar_volume,
    gudermannian,
    max_half_width,
    modified_half_width,
    shell_detour_lengths,
    shell_volume,
)
from hypspec.verify import check_shell_detour, sample_shell_detours

mpmath.mp.dps = 50


def mp_half_width(ell):
    return mpmath.asinh(1 / mpmath.sinh(mpmath.mpf(ell) / 2))


def test_max_half_width_matches_mpmath():
    for ell in (1e-4, 1e-2, 0.09, 0.1, 0.5, 1.0, 1.7):
        expect = float(mp_half_width(ell))
        assert max_half_width(ell) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        max_half_width(0.0)
    with pytest.raises(ValueError):
        max_half_width(math.inf)


def test_max_half_width_past_the_sinh_overflow():
    # sinh(l/2) overflows from l ~ 1420.9 on; the width there is
    # asinh(2 e^(-l/2)), subnormal and then 0, never an OverflowError
    with pytest.raises(OverflowError):
        math.sinh(1421 / 2)
    for ell in (700.0, 1420.0, 1421.0, 1500.0, 1e6):
        expect = float(mp_half_width(ell))
        got = max_half_width(ell)
        assert abs(got - expect) <= math.ulp(expect), ell
        assert modified_half_width(ell) == 0.0
    assert max_half_width(1500.0) == max_half_width(1e300) == 0.0


# 1/sinh(l/2) overflows below l ~ 1.1e-308, and l/2 rounds to 0 at 5e-324
SHORTEST = (1e-300, 1e-308, 1e-309, 1e-320, 5e-324)


def test_max_half_width_past_the_quotient_overflow():
    for ell in SHORTEST:
        expect = float(mp_half_width(ell))
        assert max_half_width(ell) == pytest.approx(expect, rel=1e-15), ell
    assert max_half_width(1e-309) == pytest.approx(712.885088096, rel=1e-11)


def test_collar_areas_past_the_sinh_overflow():
    # widths past ~710 overflow sinh; the full collar's area tends to 4,
    # the modified one's to 4/e^2 and its shell's to 4(e-1)/e^2
    for ell in SHORTEST:
        for w in (max_half_width(ell), modified_half_width(ell)):
            collar = 2 * mpmath.mpf(ell) * mpmath.sinh(w)
            shell = 2 * mpmath.mpf(ell) * (mpmath.sinh(mpmath.mpf(w) + 1) - mpmath.sinh(w))
            assert collar_volume(ell, w) == pytest.approx(float(collar), rel=1e-13), ell
            assert shell_volume(ell, w) == pytest.approx(float(shell), rel=1e-13), ell
        w = modified_half_width(ell)
        assert collar_volume(ell, w) == pytest.approx(4 / math.e**2, rel=1e-12)
        assert shell_volume(ell, w) == pytest.approx(4 * (math.e - 1) / math.e**2, rel=1e-12)


def test_modified_half_width_offsets_by_two():
    assert modified_half_width(0.09) == pytest.approx(1.7944086998410058, rel=1e-13)
    # once the full width drops under 2 the modified width clamps at zero
    assert modified_half_width(1.7) == 0.0
    w = max_half_width(0.3)
    assert modified_half_width(0.3) == pytest.approx(w - 2.0, rel=1e-12)


def test_collar_volume_matches_mpmath():
    for ell, w in ((0.09, 1.0), (0.1, 2.0), (0.5, 0.7)):
        expect = float(2 * mpmath.mpf(ell) * mpmath.sinh(w))
        assert collar_volume(ell, w) == pytest.approx(expect, rel=1e-14)


def test_shell_volume_matches_mpmath():
    for ell, w in ((0.09, 1.5), (0.1, 2.0)):
        expect = float(2 * mpmath.mpf(ell) * (mpmath.sinh(w + 1) - mpmath.sinh(w)))
        assert shell_volume(ell, w) == pytest.approx(expect, rel=1e-14)


def test_tube_identity_sinh_form():
    # 2 l sinh(w_max(l)) == 2 l / sinh(l/2), exactly, by construction
    for ell in (1e-4, 1e-2, 0.1, 0.5, 1.0):
        lhs = collar_volume(ell, max_half_width(ell))
        rhs = 2.0 * ell / math.sinh(ell / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_half_width_small_length_asymptotics():
    # w_max(l) ~ log(4/l), so exp(w) * l / 4 -> 1
    ell = 1e-4
    assert abs(math.exp(max_half_width(ell)) * ell / 4.0 - 1.0) < 1e-3


def test_gudermannian_oracle():
    for w in (0.3, 1.0, 1.7944086998410058, 5.0):
        expect = float(2 * mpmath.atan(mpmath.tanh(mpmath.mpf(w) / 2)))
        assert gudermannian(w) == pytest.approx(expect, rel=1e-14)
    assert gudermannian(0.0) == 0.0
    # saturates at pi/2
    assert gudermannian(60.0) == pytest.approx(math.pi / 2, rel=1e-14)


def test_uhp_distance_oracle():
    # vertical ray: d(i, e*i) = 1
    assert uhp_distance(1j, math.e * 1j) == pytest.approx(1.0, rel=1e-12)
    z1, z2 = complex(-0.3, 0.8), complex(0.5, 1.9)
    expect = float(
        mpmath.acosh(
            1
            + (mpmath.mpf("0.8") ** 2 + mpmath.mpf("1.1") ** 2)
            / (2 * mpmath.mpf("0.8") * mpmath.mpf("1.9"))
        )
    )
    assert uhp_distance(z1, z2) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        uhp_distance(1j, complex(0.0, -1.0))


def test_collar_distance_same_point_and_symmetry():
    ell = 0.09
    assert collar_distances(0.4, 0.1, 0.4, 0.1, ell) == 0.0
    a, b = (0.3, 0.12), (-0.2, 0.77)
    assert collar_distances(*a, *b, ell) == pytest.approx(
        collar_distances(*b, *a, ell), rel=1e-10
    )


def test_collar_distance_uses_the_short_way_around():
    # going forward 0.9 of a turn equals going back 0.1
    ell = 0.09
    d_fwd = collar_distances(0.0, 0.0, 0.0, 0.9, ell)
    d_bwd = collar_distances(0.0, 0.0, 0.0, 0.1, ell)
    assert d_fwd == pytest.approx(d_bwd, rel=1e-10)
    assert d_fwd == pytest.approx(0.1 * ell, rel=1e-10)


def test_same_rho_geodesic_matches_collar_distance():
    ell = 0.09
    # on the core the arc is the core segment itself
    assert same_rho_geodesic_length(0.0, 0.3, ell) == pytest.approx(
        0.3 * ell, rel=1e-12
    )
    # off the core: agrees with the 2-point distance for t <= 1/2,
    # and never exceeds the equidistant-circle arc
    for rho, t in ((0.8, 0.2), (1.4, 0.5), (2.0, 0.37)):
        chord = collar_distances(rho, 0.0, rho, t, ell)
        val = same_rho_geodesic_length(rho, t, ell)
        assert val == pytest.approx(chord, rel=1e-10)
        assert val <= t * ell * math.cosh(rho) * (1 + 1e-12)
    with pytest.raises(ValueError):
        same_rho_geodesic_length(0.5, 1.2, ell)


def test_shell_detour_vs_direct():
    ell = 0.05
    w = max_half_width(ell)
    direct, detour = shell_detour_lengths(w - 0.3, w - 0.3 + 0.01, 0.0, 0.001, ell)
    assert direct > 0
    assert detour >= direct
    assert detour <= 5.0 * direct
    with pytest.raises(ValueError):
        shell_detour_lengths(-0.1, 0.5, 0.0, 0.0, ell)


def mp_collar_distance(rho1, t1, rho2, t2, length):
    """50-digit distance through the upper half-plane lift of the collar.

    The core lies on the unit circle, (rho, t) sits at e^{l t} e^{i theta}
    with theta = 2 arctan(e^{-rho}), and the second point is tried at the
    deck translates floor and ceil of t2 - t1.
    """
    ell = mpmath.mpf(length)

    def lift(rho, t):
        theta = 2 * mpmath.atan(mpmath.exp(-mpmath.mpf(rho)))
        return mpmath.exp(ell * t) * mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta))

    z1 = lift(rho1, 0)
    base = mpmath.mpf(t2) - mpmath.mpf(t1)
    return min(
        mpmath.acosh(1 + abs(z1 - z2) ** 2 / (2 * z1.imag * z2.imag))
        for z2 in (lift(rho2, base - mpmath.floor(base)), lift(rho2, base - mpmath.ceil(base)))
    )


def test_collar_distances_match_mpmath_to_1e_14():
    # verify's sampler law: same-side shell pairs at distance ~0.02
    rng = np.random.default_rng(3)
    ells = np.array([0.02, 0.05, 0.09])[rng.integers(0, 3, 300)]
    widths = np.array([modified_half_width(ell) for ell in ells.tolist()])
    rho1 = widths + rng.random(300)
    t1 = rng.random(300)
    rho2 = np.minimum(widths + 1.0, np.maximum(widths, rho1 + 0.02 * rng.standard_normal(300)))
    t2 = (t1 + 0.02 / (ells * np.cosh(rho1)) * rng.standard_normal(300)) % 1.0
    pairs = list(zip(rho1.tolist(), t1.tolist(), rho2.tolist(), t2.tolist(), ells.tolist()))
    # dt = 1/2; across the t = 0 seam (both ways); opposite sides of the
    # core; far apart; on the core
    pairs += [
        (0.7, 0.25, 1.1, 0.75, 0.05),
        (1.2, 0.96875, 1.25, 0.015625, 0.09),
        (1.2, 0.015625, 1.25, 0.96875, 0.09),
        (0.8, 0.2, -1.3, 0.45, 0.5),
        (-2.5, 0.125, 2.75, 0.875, 1.0),
        (3.0, 0.0, 0.25, 0.375, 0.02),
        (0.0, 0.1, 0.0, 0.35, 0.05),
    ]
    got = collar_distances(*np.array(pairs).T)
    for d, pair in zip(got.tolist(), pairs):
        want = mp_collar_distance(*pair)
        assert abs(d - want) <= 1e-14 * want, pair
    # equal points, also one turn apart, are at distance exactly 0
    rho, t = [0.4, -0.3, 0.4], [0.1, 0.7, 0.0]
    assert collar_distances(rho, t, rho, [0.1, 0.7, 1.0], 0.05).tolist() == [0.0] * 3


@given(
    ell=st.floats(min_value=1e-3, max_value=1.5),
    rho1=st.floats(min_value=-1.0, max_value=1.0),
    rho2=st.floats(min_value=-1.0, max_value=1.0),
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
)
def test_collar_distance_symmetric_and_nonnegative(ell, rho1, rho2, t1, t2):
    w = max_half_width(ell)
    scale = min(1.0, w)
    a = (rho1 * scale, t1)
    b = (rho2 * scale, t2)
    d = collar_distances(*a, *b, ell)
    assert d >= 0.0
    assert collar_distances(*b, *a, ell) == pytest.approx(d, rel=1e-9, abs=1e-9)


@given(
    ell=st.floats(min_value=0.01, max_value=0.1),
    drho=st.floats(min_value=0.0, max_value=0.5),
    dt=st.floats(min_value=-0.01, max_value=0.01),
)
def test_detour_never_beats_direct(ell, drho, dt):
    w = max_half_width(ell)
    rho1 = w - 1.0
    rho2 = min(w, rho1 + drho)
    direct, detour = shell_detour_lengths(rho1, rho2, 0.0, dt % 1.0, ell)
    if direct > 0:
        # the computed direct distance d = acosh(1 + d^2/2) overshoots
        # the true value by up to ~eps/d absolute, so a tiny pure-radial
        # pair can make "direct" exceed the exact detour; budget for it
        slack = 1e-8 * direct + 1e-15 / direct
        assert detour >= direct - slack


# -------------------------------------------------------------------
# scalar oracles, and the array kernel against the code it replaced
# -------------------------------------------------------------------

def uhp_distance(z1, z2):
    """Hyperbolic distance in the upper half-plane.

    cosh d = 1 + |z1 - z2|^2 / (2 Im z1 Im z2).
    """
    y1, y2 = z1.imag, z2.imag
    if y1 <= 0.0 or y2 <= 0.0:
        raise ValueError("points must have positive imaginary part")
    return math.acosh(1.0 + abs(z1 - z2) ** 2 / (2.0 * y1 * y2))


def same_rho_geodesic_length(rho, t, length):
    """Length of the geodesic arc between (rho, 0) and (rho, t), 0 <= t <= 1.

    sinh(L/2) = sinh(t l / 2) cosh(rho); at t = 1 this is twice the
    injectivity radius on the equidistant circle.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return 2.0 * math.asinh(math.sinh(0.5 * t * length) * math.cosh(rho))


def reference_collar_distance(rho1, t1, rho2, t2, length):
    """Scalar complex-plane collar distance, over three deck translates."""

    def to_uhp(rho, t):
        theta = 2.0 * math.atan(math.exp(-rho))
        return math.exp(length * t) * cmath.exp(1j * theta)

    z1 = to_uhp(rho1, 0.0)
    base = t2 - t1
    best = math.inf
    for k in (math.floor(base), math.ceil(base), round(base)):
        z2 = to_uhp(rho2, base - k)
        best = min(best, uhp_distance(z1, z2))
    return best


def reference_shell_detour_length(rho1, rho2, t1, t2, length):
    """Scalar (direct, detour) pair on top of :func:`reference_collar_distance`."""
    if rho1 < 0.0 or rho2 < 0.0:
        raise ValueError("shell points must lie on one side of the core (rho >= 0)")
    direct = reference_collar_distance(rho1, t1, rho2, t2, length)
    dt = abs(t1 - t2) % 1.0
    dt = min(dt, 1.0 - dt)
    return direct, dt * length * math.cosh(rho1) + abs(rho2 - rho1)


def reference_sample_shell_detours(rng, count):
    """Round by round: the sampler's four array draws, then one attempt at a time.

    Each round draws as many attempts as pairs are still missing, with
    the same four calls as the sampler; every attempt is then built and
    tested on its own with the scalar reference.
    """
    lengths = (0.02, 0.05, 0.09)
    out = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        n = min(count - len(out), 100 * count - attempts)
        u, t1s = rng.random(n).tolist(), rng.random(n).tolist()
        z_rhos, z_ts = rng.standard_normal(n).tolist(), rng.standard_normal(n).tolist()
        for j in range(n):
            attempts += 1
            ell = lengths[attempts % len(lengths)]
            w = modified_half_width(ell)
            rho1 = w + u[j]
            t1 = t1s[j]
            rho2 = min(w + 1.0, max(w, rho1 + 0.02 * z_rhos[j]))
            t2 = (t1 + 0.02 / (ell * math.cosh(rho1)) * z_ts[j]) % 1.0
            direct, detour = reference_shell_detour_length(rho1, rho2, t1, t2, ell)
            if 0.0 < direct <= 0.05:
                out.append((direct, detour))
    if len(out) < count:
        raise RuntimeError("shell detour sampler failed to reach the requested count")
    return out


shell_pair = st.tuples(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)


@given(
    ell=st.floats(min_value=1e-3, max_value=1.5),
    pairs=st.lists(shell_pair, min_size=1, max_size=20),
    flip=st.booleans(),
)
def test_array_kernel_matches_scalar_reference(ell, pairs, flip):
    rho1, t1, rho2, t2 = np.array(pairs).T
    direct, detour = shell_detour_lengths(rho1, rho2, t1, t2, ell)
    assert direct.shape == detour.shape == (len(pairs),)
    for j, (r1, s1, r2, s2) in enumerate(pairs):
        # distances against 50 digits (the float reference loses about
        # eps / d absolute in its arccosh); the absolute slack is the
        # rounding of t2 - t1, at most 2^-54 times a slope of at most
        # l cosh 3 < 16
        assert direct[j] == pytest.approx(
            float(mp_collar_distance(r1, s1, r2, s2, ell)), rel=1e-14, abs=1e-15
        )
        _, want_detour = reference_shell_detour_length(r1, r2, s1, s2, ell)
        assert detour[j] == pytest.approx(want_detour, rel=1e-12, abs=1e-15)
        # the distance kernel, with the second point on either side of the core
        q = (-r2 if flip else r2, s2)
        assert collar_distances(r1, s1, *q, ell) == pytest.approx(
            float(mp_collar_distance(r1, s1, *q, ell)), rel=1e-14, abs=1e-15
        )


def test_shell_detour_lengths_broadcasts_scalars_with_arrays():
    ell = 0.05
    w = max_half_width(ell)
    rho2 = w - 0.3 + np.array([0.0, 0.004, 0.01, 0.02])
    t2 = np.array([0.001, 0.0, 0.999, 0.5])
    lengths = np.array([0.02, 0.05, 0.09, 0.05])
    for args in (
        (w - 0.3, rho2, 0.0, t2, ell),
        (w - 0.3, rho2, 0.0, t2, lengths),
        (w - 0.3, w - 0.29, 0.0, 0.001, lengths),
    ):
        direct, detour = shell_detour_lengths(*args)
        wide = np.broadcast_arrays(*args)
        assert direct.shape == detour.shape == wide[0].shape == (4,)
        for j in range(4):
            want = tuple(map(float, shell_detour_lengths(*(float(a[j]) for a in wide))))
            assert (direct[j], detour[j]) == pytest.approx(want, rel=1e-12)


def test_shell_detour_lengths_rejects_one_negative_rho():
    rho = np.array([0.5, 0.7, -1e-9, 0.9])
    for rho1, rho2 in ((rho, 0.6), (0.6, rho)):
        with pytest.raises(ValueError, match="one side of the core"):
            shell_detour_lengths(rho1, rho2, 0.0, 0.01, 0.05)


@pytest.mark.parametrize(
    "name, value",
    [
        ("length", -0.05),
        ("length", 0.0),
        ("length", math.nan),
        ("length", math.inf),
        ("rho1", math.nan),
        ("rho2", math.inf),
        ("t1", math.nan),
        ("t2", -math.inf),
        ("t2", np.array([0.12, math.nan])),
    ],
)
def test_distance_kernels_reject_bad_input(name, value):
    kind = "positive and finite" if name == "length" else "finite"
    args = {"rho1": 1.0, "t1": 0.1, "rho2": 1.01, "t2": 0.12, "length": 0.05, name: value}
    with pytest.raises(ValueError, match=f"{name} must be {kind}"):
        shell_detour_lengths(args["rho1"], args["rho2"], args["t1"], args["t2"], args["length"])
    with pytest.raises(ValueError, match=f"{name} must be {kind}"):
        collar_distances(**args)


@pytest.mark.parametrize("seed", [*range(1, 11), 42])
def test_sampler_matches_one_attempt_at_a_time(seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    direct, detour = sample_shell_detours(rng, 10_000)
    expected = reference_sample_shell_detours(reference_rng, 10_000)
    assert len(expected) == 10_000
    for got in (direct, detour):
        assert got.dtype == np.float64 and got.shape == (10_000,)
    want_direct, want_detour = np.array(expected).T
    assert direct == pytest.approx(want_direct, rel=1e-9)
    assert detour == pytest.approx(want_detour, rel=1e-12)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class ZeroDraws:
    """Generator stand-in whose draws are all zero, so every attempt has direct = 0.

    It counts the ``random`` values drawn, two per attempt, and fails the
    test, rather than hang, once the sampler draws past ``max_attempts``.
    """

    def __init__(self, max_attempts):
        self.max_attempts = max_attempts
        self.random_values = 0

    def random(self, n):
        self.random_values += n
        assert self.random_values <= 2 * self.max_attempts, "the sampler drew past its budget"
        return np.zeros(n)

    def standard_normal(self, n):
        return np.zeros(n)


def test_sampler_gives_up_after_its_attempt_budget():
    count = 7
    stub = ZeroDraws(max_attempts=100 * count)
    with pytest.raises(RuntimeError, match="failed to reach the requested count"):
        sample_shell_detours(stub, count)
    assert stub.random_values == 2 * 100 * count


def test_shell_detour_check_passes_in_full_on_fifty_seeds():
    # verify prints only pass/total counts, and shell-detour is the first
    # check that draws, so this pins verify's shell-detour line at
    # 10000/10000 on these seeds whatever order the pairs are drawn in
    failing = {}
    for seed in range(50):
        result = check_shell_detour(np.random.default_rng(seed))
        if result != (10_000, 10_000):
            failing[seed] = result
    assert failing == {}
