import math

import numpy as np
import pytest

from hypspec.verify import SplitMix64


def splitmix64_words(seed, n):
    """The first ``n`` words of SplitMix64 from ``seed``, one Python int at a time."""
    state, words = seed % 2**64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        words.append(z ^ (z >> 31))
    return words


def test_the_reference_stream_starts_with_the_published_seed_0_words():
    assert splitmix64_words(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1])
def test_the_stream_is_splitmix64_word_for_word(seed):
    want = splitmix64_words(seed, 40)
    g = SplitMix64(seed)
    assert [int(x * 2**53) for x in g.random(7)] == [w >> 11 for w in want[:7]]
    assert g.integers(0, 2**63, size=33).tolist() == [w % 2**63 for w in want[7:]]


def test_the_same_seed_gives_the_same_stream():
    a, b = SplitMix64(7), SplitMix64(7)
    for call in ("random", "standard_normal"):
        assert np.array_equal(getattr(a, call)((40, 3)), getattr(b, call)((40, 3)))
    assert np.array_equal(a.integers(-5, 5, size=100), b.integers(-5, 5, size=100))
    assert np.array_equal(a.uniform(1.0, 2.0, size=9), b.uniform(1.0, 2.0, size=9))
    assert not np.array_equal(SplitMix64(7).random(40), SplitMix64(8).random(40))


def test_seeds_are_read_modulo_two_to_the_64():
    for seed in (0, 5, 2**63 + 5):
        assert np.array_equal(SplitMix64(seed + 2**64).random(50), SplitMix64(seed).random(50))
        assert np.array_equal(SplitMix64(seed + 3 * 2**64).random(50), SplitMix64(seed).random(50))
    assert not np.array_equal(SplitMix64(2**63 + 5).random(50), SplitMix64(5).random(50))


def test_a_negative_seed_is_refused():
    for seed in (-1, -(2**64)):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            SplitMix64(seed)


def test_consecutive_random_calls_continue_one_stream():
    g = SplitMix64(3)
    parts = [g.random(0), g.random(5), g.random((2, 4)), g.random(1)]
    assert [p.shape for p in parts] == [(0,), (5,), (2, 4), (1,)]
    assert np.array_equal(np.concatenate([p.ravel() for p in parts]), SplitMix64(3).random(14))


def test_uniforms_lie_in_the_unit_interval_on_the_53_bit_grid():
    u = SplitMix64(11).random(1_000_000)
    assert u.dtype == np.float64
    assert u.min() >= 0.0 and u.max() < 1.0
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))
    # the low bits are used: not every value is on a coarser grid
    assert np.count_nonzero(scaled % 2.0) > 0


def test_uniform_is_an_affine_map_of_random():
    got = SplitMix64(5).uniform(-1.0, 3.0, size=(10, 2))
    assert np.array_equal(got, -1.0 + 4.0 * SplitMix64(5).random((10, 2)))


def test_integers_hit_every_value_of_the_range_and_nothing_else():
    for low, high in ((0, 1), (2, 9), (-3, 4), (0, 3)):
        values = SplitMix64(low + 17).integers(low, high, size=(100, 50))
        assert values.dtype == np.int64 and values.shape == (100, 50)
        assert set(np.unique(values).tolist()) == set(range(low, high))
    with pytest.raises(ValueError, match="low < high"):
        SplitMix64(0).integers(3, 3, size=4)


def test_normals_have_mean_zero_and_variance_one():
    n = 1_000_000
    z = SplitMix64(2024).standard_normal(n)
    # five standard errors: 5 / sqrt(n) for the mean, 5 sqrt(2 / n) for the variance
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert np.isfinite(z).all()


def test_normals_take_both_outputs_of_each_box_muller_pair():
    # value i is pair i's r cos, value m + i its r sin; an odd count drops the last sine
    even = SplitMix64(9).standard_normal(6)
    assert np.array_equal(SplitMix64(9).standard_normal(5), even[:5])
    u = SplitMix64(9).random(6)
    radius = np.sqrt(-2.0 * np.log(u[:3] + 2.0**-53))
    angle = 2.0 * math.pi * u[3:]
    want = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    np.testing.assert_allclose(even, want, rtol=0.0, atol=1e-14)
    assert SplitMix64(9).standard_normal((3, 4)).shape == (3, 4)
