import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from hypspec.surfaces import (
    ChainFamilyParams,
    InvalidSurfaceError,
    PantsSurface,
    _union_find,
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

import graph_oracle
from random_pants import random_pants_surface, tie_length


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


def _malformed(path, value):
    """The genus-3 chain's description with one field replaced by ``value``."""
    desc = surface_to_dict(chain(3))
    *parents, key = path
    target = desc
    for step in parents:
        target = target[step]
    target[key] = value
    return desc


@pytest.mark.parametrize(
    "path, value, want",
    [
        (("edges", 0, "length"), None, "edge #0 has non-numeric length None"),
        (("edges", 0, "twist"), None, "edge #0 has non-numeric twist None"),
        (("edges", 0, "length"), "abc", "edge #0 has non-numeric length 'abc'"),
        (("edges", 1), 1, "edge #1 is not an object"),
        (("vertices",), 5, "vertices is not a list"),
        (("edges",), {"a": 1}, "edges is not a list"),
    ],
    ids=["null-length", "null-twist", "text-length", "edge-not-object",
         "vertices-not-list", "edges-not-list"],
)
def test_malformed_fields_are_listed_not_raised(path, value, want):
    desc = _malformed(path, value)
    assert validate_description(desc) == [want]
    with pytest.raises(InvalidSurfaceError) as err:
        build_from_description(desc)
    assert err.value.violations == [want]


def test_a_description_that_is_not_an_object_is_listed():
    for desc in ([], 5, "surface"):
        assert validate_description(desc) == ["surface description is not an object"]
        with pytest.raises(InvalidSurfaceError):
            load_surface(json.dumps(desc))


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


@st.composite
def multigraphs(draw):
    """Vertex names in a drawn order, with self-loops, parallel edges and isolated vertices."""
    n = draw(st.integers(min_value=0, max_value=12))
    names = draw(st.permutations([f"v{k:02d}" for k in range(n)]))
    if not names:
        return names, []
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=20))
    return names, pairs


@given(multigraphs())
def test_union_find_matches_the_dictionary_oracle(graph):
    names, pairs = graph
    want = graph_oracle.connected_components(names, pairs)
    assert connected_components(names, pairs) == want
    index = {v: k for k, v in enumerate(names)}
    roots = _union_find(len(names), [(index[a], index[b]) for a, b in pairs])
    assert len(set(roots)) == len(want)
    for comp in want:
        assert len({roots[index[v]] for v in comp}) == 1


def test_a_surface_builds_its_integer_graph_once():
    s = chain(5)
    graph = s._graph
    assert s._graph is graph
    assert graph.vertices == s.vertices
    assert [graph.vertices[a] for a, _ in graph.ends] == [e.a for e in s.edges]
    assert [graph.vertices[b] for _, b in graph.ends] == [e.b for e in s.edges]
    # the memo is no field: equality, hashing and the JSON form ignore it
    assert s == chain(5) and hash(s) == hash(chain(5))
    assert dump_surface(s) == dump_surface(chain(5))


def test_edges_out_of_label_order_or_repeated_are_refused():
    edges = chain(3).edges
    assert [e.label for e in edges] == sorted(e.label for e in edges)
    swapped = (edges[1], edges[0], *edges[2:])
    repeated = (edges[0], edges[0], *edges[2:])
    for bad in (swapped, repeated, tuple(reversed(edges))):
        with pytest.raises(ValueError, match="strictly increasing label order"):
            PantsSurface(genus=3, vertices=chain(3).vertices, edges=bad)


def test_a_shuffled_description_builds_the_sorted_surface():
    rng = random.Random(2024)
    surfaces = [chain(g) for g in (2, 5, 9)]
    surfaces += [random_pants_surface(random.Random(50 + g), g, tie_length) for g in range(2, 9)]
    for s in surfaces:
        desc = surface_to_dict(s)
        for _ in range(3):
            rng.shuffle(desc["edges"])
            built = build_from_description(desc)
            assert built == s
            assert [e.label for e in built.edges] == sorted(e.label for e in s.edges)
