import json
import math

import pytest
from hypothesis import given, strategies as st

from hypspec.surfaces import (
    ChainFamilyParams,
    InvalidSurfaceError,
    PantsSurface,
    build_chain_family,
    build_from_description,
    chain_central_join_label,
    chain_join_label,
    connected_components,
    dump_surface,
    load_surface,
    surface_to_dict,
    total_volume,
    validate_description,
)


def chain(genus: int, length: float = 0.09) -> PantsSurface:
    return build_chain_family(ChainFamilyParams(genus=genus, core_length=length))


def test_chain_counts_scale_with_genus():
    for g in range(2, 12):
        s = chain(g)
        assert s.genus == g
        assert len(s.vertices) == 2 * (g - 1)
        assert len(s.edges) == 3 * (g - 1)


def test_chain_is_trivalent():
    # validation checks every pants has degree 3, self-loops counted twice
    assert validate_description(surface_to_dict(chain(7))) == []


def test_genus_two_chain_is_the_handcuffs_graph():
    s = chain(2)
    labels = sorted(e.label for e in s.edges)
    assert labels == ["j000", "s000", "s001"]
    loops = [e for e in s.edges if e.a == e.b]
    assert len(loops) == 2
    join = s.edge_by_label("j000")
    assert join.a != join.b


def test_chain_label_conventions():
    s = chain(5)
    labels = {e.label for e in s.edges}
    assert {"s000", "s001"} <= labels
    assert {chain_join_label(5, k) for k in range(4)} <= labels
    assert {"r001a", "r001b", "r002a", "r002b", "r003a", "r003b"} <= labels
    assert chain_central_join_label(5) == "j001"
    assert chain_central_join_label(6) == "j002"


def test_central_join_balances_even_genus():
    g = 8
    s = chain(g)
    label = chain_central_join_label(g)
    e = s.edge_by_label(label)
    # removing the central join splits the pants evenly for even genus
    halves = connected_components(
        s.vertices, [(x.a, x.b) for x in s.edges if x.label != label]
    )
    assert sorted(len(c) for c in halves) == [g - 1, g - 1]


def test_total_volume_is_gauss_bonnet_area():
    assert total_volume(chain(10)) == pytest.approx(36.0 * math.pi, rel=1e-15)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainFamilyParams(genus=1, core_length=0.09)
    with pytest.raises(ValueError):
        ChainFamilyParams(genus=3, core_length=0.0)
    with pytest.raises(ValueError):
        # beyond 2 arcsinh(1) the curve could not be the systole of any
        # surface in the family, and the collar bounds degrade
        ChainFamilyParams(genus=3, core_length=2.0)


def test_round_trip_through_json():
    s = chain(6, 0.31)
    again = load_surface(dump_surface(s))
    assert again == s
    # serialized form is deterministic
    assert dump_surface(again) == dump_surface(s)


def test_description_validation_catches_structural_damage():
    good = surface_to_dict(chain(3))

    broken = json.loads(json.dumps(good))
    broken["edges"][0]["a"] = "p999"
    assert any("unknown" in v for v in validate_description(broken))

    broken = json.loads(json.dumps(good))
    broken["edges"][1]["label"] = broken["edges"][0]["label"]
    assert validate_description(broken)

    broken = json.loads(json.dumps(good))
    del broken["edges"][0]
    assert validate_description(broken)

    broken = json.loads(json.dumps(good))
    broken["edges"][0]["length"] = math.inf
    assert validate_description(broken)


def test_build_from_description_raises_with_all_violations():
    desc = surface_to_dict(chain(3))
    desc["edges"][0]["length"] = -1.0
    desc["edges"][1]["label"] = desc["edges"][2]["label"]
    with pytest.raises(InvalidSurfaceError) as err:
        build_from_description(desc)
    assert len(err.value.violations) >= 2


def _broken_descriptions():
    good = surface_to_dict(chain(3))
    yield {"vertices": good["vertices"]}, [
        "missing field 'genus'",
        "missing field 'edges'",
    ]
    yield {**good, "genus": "three"}, ["genus is not an integer: 'three'"]
    broken = json.loads(json.dumps(good))
    del broken["edges"][1]["length"], broken["edges"][3]["a"]
    yield broken, ["edge #1 missing fields ['length']", "edge #3 missing fields ['a']"]
    broken = json.loads(json.dumps(good))
    broken["edges"][0]["length"] = -1.0
    broken["edges"][1]["label"] = broken["edges"][2]["label"]
    label0, label2 = broken["edges"][0]["label"], broken["edges"][2]["label"]
    yield broken, [
        f"duplicate edge labels: [{label2!r}]",
        f"edge {label0!r} has non-positive or non-finite length -1.0",
    ]


def test_build_raises_exactly_the_validation_list():
    for desc, want in _broken_descriptions():
        assert validate_description(desc) == want
        with pytest.raises(InvalidSurfaceError) as err:
            build_from_description(desc)
        assert err.value.violations == want
        assert str(err.value) == "; ".join(want)


def test_build_reads_each_edge_once(monkeypatch):
    import hypspec.surfaces as surfaces

    desc = surface_to_dict(chain(5))
    built = []

    class CountingEdge(surfaces.Edge):
        def __init__(self, **fields):
            built.append(fields["label"])
            super().__init__(**fields)

    monkeypatch.setattr(surfaces, "Edge", CountingEdge)
    surface = build_from_description(desc)
    assert sorted(built) == sorted(e["label"] for e in desc["edges"])
    assert [e.label for e in surface.edges] == sorted(built)


def test_disconnected_description_is_rejected():
    # two handcuffs glued nowhere: right counts, wrong topology
    desc = {
        "genus": 3,
        "vertices": ["p000", "p001", "p002", "p003"],
        "edges": [
            {"label": "a0", "a": "p000", "b": "p000", "length": 0.5, "twist": 0.0},
            {"label": "a1", "a": "p001", "b": "p001", "length": 0.5, "twist": 0.0},
            {"label": "a2", "a": "p000", "b": "p001", "length": 0.5, "twist": 0.0},
            {"label": "b0", "a": "p002", "b": "p002", "length": 0.5, "twist": 0.0},
            {"label": "b1", "a": "p003", "b": "p003", "length": 0.5, "twist": 0.0},
            {"label": "b2", "a": "p002", "b": "p003", "length": 0.5, "twist": 0.0},
        ],
    }
    violations = validate_description(desc)
    assert any("connected" in v for v in violations)


def test_connected_components_unions_multigraph():
    comps = connected_components(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "b"), ("c", "c")]
    )
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c"], ["d"]]


@given(
    genus=st.integers(min_value=2, max_value=30),
    length=st.floats(min_value=1e-4, max_value=1.7),
)
def test_every_chain_passes_its_own_validation(genus, length):
    s = build_chain_family(ChainFamilyParams(genus=genus, core_length=length))
    assert validate_description(surface_to_dict(s)) == []
    assert len(connected_components(s.vertices, [(e.a, e.b) for e in s.edges])) == 1
