import json
import math

import pytest

from hypspec.collars import max_half_width
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
    # collar and shell areas over the sampled short lengths
    lo_t, hi_t = checklist.volume_t_range
    lo_s, hi_s = checklist.volume_s_range
    assert 0.5 <= lo_t <= hi_t <= 4.0
    assert 0.5 <= lo_s <= hi_s <= 4.0
    # loose pin on the actual windows
    assert lo_t == pytest.approx(0.523, abs=2e-2)
    assert hi_t == pytest.approx(0.541, abs=2e-2)
    assert lo_s == pytest.approx(0.930, abs=2e-2)
    assert hi_s == pytest.approx(0.942, abs=2e-2)


def test_admissibility_is_memoized_per_epsilon():
    assert epsilon_admissible(0.05) is epsilon_admissible(0.05)
    assert epsilon_admissible(0.04) is not epsilon_admissible(0.05)
    # failures are not cached: every bad epsilon raises on every call
    for bad in (math.nan, -0.05, 0.0, math.inf, -math.inf):
        for _ in range(2):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                epsilon_admissible(bad)


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
    assert sorted(d.thin_labels) == sorted(e.label for e in s.edges)
    # cutting every curve isolates each pair of pants
    assert len(d.thick_components) == len(s.vertices)
    for tc in d.thin_collars:
        assert tc.collar.core_length == 0.09
        assert tc.collar.half_width == pytest.approx(1.7944086998410058, rel=1e-12)
        assert tc.collar.has_shell


def test_thin_threshold_is_strict():
    eps = 0.05
    at = chain(3, 2 * eps)  # length exactly 2*eps: not thin
    d = decompose(at, epsilon=eps)
    assert d.thin_labels == ()
    assert len(d.thick_components) == 1

    below = chain(3, 2 * eps - 1e-9)
    d2 = decompose(below, epsilon=eps)
    assert len(d2.thin_labels) == len(below.edges)


def test_mixed_decomposition_structure():
    # shrink only the joins below the thin threshold
    desc = surface_to_dict(chain(4, 0.8))
    for e in desc["edges"]:
        if e["label"].startswith("j"):
            e["length"] = 0.09
    s = build_from_description(desc)
    d = decompose(s)
    assert sorted(d.thin_labels) == ["j000", "j001", "j002"]
    # ends become singletons, the two middle blocks stay rung-tied
    sizes = sorted(len(comp) for comp in d.thick_components)
    assert sizes == [1, 1, 2, 2]
    idx = d.component_index()
    for tc in d.thin_collars:
        left, right = tc.endpoints
        assert idx[left] != idx[right]


def test_component_index_covers_every_pants():
    s = chain(6)
    d = decompose(s)
    idx = d.component_index()
    for v in s.vertices:
        assert v in d.thick_components[idx[v]]


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
