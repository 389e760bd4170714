import json
import math

import mpmath
import numpy as np
import pytest

from hypspec.collars import collar_volume, max_half_width, modified_half_width, shell_volume
from hypspec.surfaces import (
    ChainFamilyParams,
    build_chain_family,
    build_from_description,
    surface_to_dict,
)
from hypspec.thickthin import (
    DEFAULT_EPSILON,
    EPSILON_SMALLNESS_BOUND,
    InadmissibleEpsilonError,
    decompose,
    epsilon_admissible,
)


def chain(genus, length=0.09):
    return build_chain_family(ChainFamilyParams(genus=genus, core_length=length))


def test_default_epsilon_is_admissible():
    checklist = epsilon_admissible(DEFAULT_EPSILON)
    assert checklist.passed
    assert checklist.failed_conditions() == []
    assert checklist.width_ok and checklist.volume_ok and checklist.smallness_ok


def test_admissibility_checklist_numbers():
    checklist = epsilon_admissible(0.05)
    # width margin: arcsinh(1/sinh(eps)) - 2 >= 1 > eps
    assert max_half_width(2 * 0.05) - 2.0 >= 1.0
    assert checklist.width_margin >= 1.0
    # collar and shell areas over the thin range (0, 2 eps]
    lo_t, hi_t = checklist.volume_t_range
    lo_s, hi_s = checklist.volume_s_range
    assert 0.5 <= lo_t <= hi_t <= 4.0
    assert 0.5 <= lo_s <= hi_s <= 4.0
    # loose pin on the actual windows
    assert lo_t == pytest.approx(0.523, abs=2e-2)
    assert hi_t == pytest.approx(0.541, abs=2e-2)
    assert lo_s == pytest.approx(0.930, abs=2e-2)
    assert hi_s == pytest.approx(0.942, abs=2e-2)


def test_admissibility_rejects_every_bad_epsilon():
    # every bad epsilon raises, on every call
    for bad in (math.nan, -0.05, 0.0, math.inf, -math.inf):
        for _ in range(2):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                epsilon_admissible(bad)


def _grid_volume_condition(epsilon):
    """The sampled volume condition the closed-form ends replaced.

    512 geometric lengths over [1e-6 * 2 eps, 2 eps]:
    (verdict, (min T, max T), (min S, max S)).
    """
    lengths = np.geomspace(2.0 * epsilon * 1e-6, 2.0 * epsilon, 512)
    vol_t = np.array([collar_volume(l, modified_half_width(l)) for l in lengths])
    vol_s = np.array([shell_volume(l, modified_half_width(l)) for l in lengths])
    ok = bool(
        (vol_t.min() >= 0.5) and (vol_t.max() <= 4.0)
        and (vol_s.min() >= 0.5) and (vol_s.max() <= 4.0)
    )
    return ok, (vol_t.min(), vol_t.max()), (vol_s.min(), vol_s.max())


# the last eps with T(2 eps) >= 1/2, the eps where the modified width
# clamps (w(2 eps) = 2), and the eps where S(2 eps) = 2 (2 eps) sinh 1 = 4
_VOLUME_EDGES = (0.07504622988579653, math.asinh(1.0 / math.sinh(2.0)), 1.0 / math.sinh(1.0))


def test_volume_condition_equals_the_sampled_grid():
    eps_values = list(np.geomspace(1e-6, 5.0, 400)) + [
        v for e in _VOLUME_EDGES for v in (math.nextafter(e, 0.0), e, math.nextafter(e, 9.0))
    ] + [DEFAULT_EPSILON, EPSILON_SMALLNESS_BOUND]
    assert len(eps_values) >= 400
    verdicts = set()
    for eps in map(float, eps_values):
        checklist = epsilon_admissible(eps)
        ok, (t_min, t_max), (s_min, s_max) = _grid_volume_condition(eps)
        assert checklist.volume_ok == ok, eps
        assert checklist.passed == (ok and checklist.width_ok and checklist.smallness_ok)
        # the closed ends are the grid's own end samples, bit for bit
        assert checklist.volume_t_range[0] == t_min, eps
        assert checklist.volume_s_range[1] == s_max, eps
        # the open ends are the l -> 0 limits the grid only approaches
        assert checklist.volume_t_range[1] == 4.0 / math.e**2
        assert checklist.volume_s_range[0] == 4.0 * (math.e - 1.0) / math.e**2
        assert t_max == pytest.approx(4.0 / math.e**2, rel=1e-9)
        assert s_min == pytest.approx(4.0 * (math.e - 1.0) / math.e**2, rel=1e-9)
        verdicts.add((ok, checklist.passed))
    # both verdicts occur, on the volume condition and on the whole checklist
    assert verdicts == {(True, True), (True, False), (False, False)}


def _closed_forms(ell):
    """T and S of epsilon_admissible's proof, in phi(x) = x/sinh x and psi(x) = x coth x."""
    x = mpmath.mpf(ell) / 2
    phi, psi = x / mpmath.sinh(x), x * mpmath.coth(x)
    tube = 4 * (mpmath.cosh(2) * phi - mpmath.sinh(2) * psi)
    shell = 4 * ((mpmath.sinh(2) - mpmath.sinh(1)) * psi - (mpmath.cosh(2) - mpmath.cosh(1)) * phi)
    return tube, shell


def test_volume_closed_forms_match_mpmath():
    tol = mpmath.mpf(10) ** -40
    with mpmath.workdps(50):
        # while w >= 2: T = 2l sinh(w - 2) and S = 2l (sinh(w - 1) - sinh(w - 2))
        for ell in (1e-6, 1e-3, 0.05, 0.1, 0.3, 0.5):
            w = mpmath.asinh(1 / mpmath.sinh(mpmath.mpf(ell) / 2))
            assert w > 2
            tube = 2 * ell * mpmath.sinh(w - 2)
            shell = 2 * ell * (mpmath.sinh(w - 1) - mpmath.sinh(w - 2))
            tube_closed, shell_closed = _closed_forms(ell)
            assert abs(tube - tube_closed) < tol and abs(shell - shell_closed) < tol
            w_mod = modified_half_width(ell)
            assert collar_volume(ell, w_mod) == pytest.approx(float(tube), rel=1e-12)
            assert shell_volume(ell, w_mod) == pytest.approx(float(shell), rel=1e-12)
        # at w = 2 the pieces meet the clamped ones, T = 0 and S = 2l sinh 1
        ell_star = 2 * mpmath.asinh(1 / mpmath.sinh(2))
        tube_closed, shell_closed = _closed_forms(ell_star)
        assert abs(tube_closed) < tol
        assert abs(shell_closed - 2 * ell_star * mpmath.sinh(1)) < tol


def test_smallness_bound_value():
    assert EPSILON_SMALLNESS_BOUND == pytest.approx(1.0 / (2.0 * math.e**2), rel=1e-15)
    assert not epsilon_admissible(EPSILON_SMALLNESS_BOUND).passed
    assert epsilon_admissible(EPSILON_SMALLNESS_BOUND - 1e-6).passed


def test_tube_volume_limits_at_tiny_length():
    # as the core length shrinks, the modified collar area tends to
    # 4/e^2 and the shell area to 4(e-1)/e^2
    ell = 1e-6
    w = max_half_width(ell) - 2.0
    tube = 2 * ell * math.sinh(w)
    shell = 2 * ell * (math.sinh(w + 1) - math.sinh(w))
    assert abs(tube - 4.0 / math.e**2) < 1e-3
    assert abs(shell - 4.0 * (math.e - 1.0) / math.e**2) < 1e-3


def test_inadmissible_epsilon_raises_unless_forced():
    s = chain(3)
    with pytest.raises(InadmissibleEpsilonError) as err:
        decompose(s, epsilon=0.2)
    assert err.value.checklist.failed_conditions()
    forced = decompose(s, epsilon=0.2, force=True)
    assert forced.forced
    assert forced.epsilon == 0.2
    # forcing an admissible epsilon does not set the flag
    assert not decompose(s, epsilon=0.05, force=True).forced


def test_chain_decomposition_all_curves_thin():
    s = chain(10, 0.09)
    d = decompose(s)
    assert not d.forced
    assert sorted(tc.label for tc in d.thin_collars) == sorted(e.label for e in s.edges)
    # cutting every curve isolates each pair of pants
    assert len(d.thick_components) == len(s.vertices)
    for tc in d.thin_collars:
        assert tc.core_length == 0.09
        assert tc.half_width == pytest.approx(1.7944086998410058, rel=1e-12)


def test_thin_threshold_is_strict():
    eps = 0.05
    at = chain(3, 2 * eps)  # length exactly 2*eps: not thin
    d = decompose(at, epsilon=eps)
    assert d.thin_collars == ()
    assert len(d.thick_components) == 1

    below = chain(3, 2 * eps - 1e-9)
    d2 = decompose(below, epsilon=eps)
    assert len(d2.thin_collars) == len(below.edges)


def test_mixed_decomposition_structure():
    # shrink only the joins below the thin threshold
    desc = surface_to_dict(chain(4, 0.8))
    for e in desc["edges"]:
        if e["label"].startswith("j"):
            e["length"] = 0.09
    s = build_from_description(desc)
    d = decompose(s)
    assert sorted(tc.label for tc in d.thin_collars) == ["j000", "j001", "j002"]
    # ends become singletons, the two middle blocks stay rung-tied
    sizes = sorted(len(comp) for comp in d.thick_components)
    assert sizes == [1, 1, 2, 2]
    idx = {v: i for i, comp in enumerate(d.thick_components) for v in comp}
    for tc in d.thin_collars:
        left, right = tc.endpoints
        assert idx[left] != idx[right]


def test_to_dict_is_json_serializable():
    d = decompose(chain(4))
    blob = json.dumps(d.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["epsilon"] == 0.05
    assert parsed["forced"] is False
    assert len(parsed["thin_collars"]) == 9
    first = parsed["thin_collars"][0]
    assert set(first) == {
        "label",
        "endpoints",
        "core_length",
        "half_width",
        "collar_volume",
        "shell_volume",
    }
