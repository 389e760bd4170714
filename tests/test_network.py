import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypspec.collars import gudermannian, max_half_width, modified_half_width
from hypspec.cuts import make_multicut, min_separating_length
from hypspec.spectral import (
    DisconnectedNetworkError,
    NetworkBuildError,
    NetworkEdge,
    NetworkModel,
    build_network,
    collar_conductance,
    network_lambda1,
    rayleigh_upper_bound,
)
from hypspec.spectral.report import collar_lambda1
from hypspec.surfaces import (
    ChainFamilyParams,
    build_chain_family,
    build_from_description,
    surface_to_dict,
)
from hypspec.thickthin import decompose

import graph_oracle
from random_pants import random_pants_surface


def chain(genus, length=0.09):
    return build_chain_family(ChainFamilyParams(genus=genus, core_length=length))


def relabeled_chain(genus, base_length, overrides):
    desc = surface_to_dict(chain(genus, base_length))
    for e in desc["edges"]:
        for prefix, val in overrides.items():
            if e["label"].startswith(prefix):
                e["length"] = val
    return build_from_description(desc)


def path_model(masses, conductance):
    n = len(masses)
    edges = tuple(
        NetworkEdge(label=f"e{i}", a=i, b=i + 1, conductance=conductance)
        for i in range(n - 1)
    )
    return NetworkModel(
        genus=n, node_pants=tuple((f"p{i}",) for i in range(n)),
        masses=tuple(masses), edges=edges,
    )


def test_conductance_formula():
    ell, w = 0.09, modified_half_width(0.09)
    c = collar_conductance(ell, w)
    assert c == pytest.approx(ell / (2.0 * gudermannian(w)), rel=1e-15)
    assert c == pytest.approx(0.0362506484068221, rel=1e-12)
    # wide-collar limit: gd -> pi/2, so c -> l / pi
    assert collar_conductance(0.09, 50.0) == pytest.approx(0.09 / math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        collar_conductance(0.0, 1.0)
    with pytest.raises(ValueError):
        collar_conductance(0.1, 0.0)
    # the smallest subnormal width: gd(w) = 2 atan(tanh(w/2)) rounds to 0
    assert gudermannian(5e-324) == 0.0
    with pytest.raises(ValueError, match="gd\\(w\\) underflows to 0"):
        collar_conductance(1490.0, max_half_width(1490.0))


def test_conductance_against_discrete_minimization():
    # independent oracle: the crossing profile minimizes
    # sum k_i (f_{i+1}-f_i)^2, k_i = l cosh(mid_i)/h, f(-w)=0, f(w)=1;
    # the series-resistor minimum is 1/sum(1/k_i)
    ell, w = 0.1, 1.689

    def discrete(n):
        rho = np.linspace(-w, w, n + 1)
        h = np.diff(rho)
        mids = 0.5 * (rho[:-1] + rho[1:])
        k = ell * np.cosh(mids) / h
        return 1.0 / np.sum(1.0 / k)

    coarse, fine = discrete(2000), discrete(4000)
    oracle = (4.0 * fine - coarse) / 3.0
    assert collar_conductance(ell, w) == pytest.approx(oracle, rel=1e-8)


def test_two_node_oracle():
    m1, m2, c = 2.0 * math.pi, 6.0 * math.pi, 0.71
    model = NetworkModel(
        genus=2,
        node_pants=(("p000",), ("p001", "p002", "p003")),
        masses=(m1, m2),
        edges=(NetworkEdge(label="j", a=0, b=1, conductance=c),),
    )
    assert network_lambda1(model) == pytest.approx(c * (1 / m1 + 1 / m2), rel=1e-12)


def test_path_oracle():
    # equal masses m, equal conductances c on a path of n nodes:
    # lambda_1 = 2 (c/m) (1 - cos(pi/n))
    for n in range(3, 9):
        m, c = 2.0 * math.pi, 0.42
        model = path_model([m] * n, c)
        expect = 2.0 * (c / m) * (1.0 - math.cos(math.pi / n))
        assert network_lambda1(model) == pytest.approx(expect, rel=1e-12)


def test_chain_network_structure_and_mass_conservation():
    s = chain(10, 0.09)
    model = build_network(decompose(s))
    assert model.n_nodes == 18
    assert len(model.edges) == 27
    assert model.total_mass() == pytest.approx(36.0 * math.pi, abs=1e-10)
    for g in range(2, 13):
        m = build_network(decompose(chain(g, 0.09)))
        assert m.total_mass() == pytest.approx(4.0 * math.pi * (g - 1), abs=1e-10)


def test_self_loops_stay_listed_but_add_nothing():
    s = chain(4, 0.09)
    model = build_network(decompose(s))
    loops = [e for e in model.edges if e.a == e.b]
    assert sorted(e.label for e in loops) == ["s000", "s001"]
    lap = model.laplacian()
    # a Laplacian without the loops is identical
    no_loops = NetworkModel(
        genus=model.genus,
        node_pants=model.node_pants,
        masses=model.masses,
        edges=tuple(e for e in model.edges if e.a != e.b),
    )
    assert np.array_equal(lap, no_loops.laplacian())
    assert network_lambda1(model) == network_lambda1(no_loops)


def test_dumbbell_rayleigh_equals_network():
    # two nodes joined by one edge: the two-level test function is the
    # exact eigenvector, so the upper bound is attained
    s = chain(2, 0.09)
    model = build_network(decompose(s))
    assert model.n_nodes == 2
    cut = make_multicut(s, ["j000"])
    upper = rayleigh_upper_bound(s, cut)
    assert upper == pytest.approx(network_lambda1(model), rel=1e-12)


def test_rayleigh_dominates_network_on_chains():
    for g in (3, 4, 6, 8):
        s = chain(g, 0.09)
        model = build_network(decompose(s))
        lam = network_lambda1(model)
        cut = min_separating_length(s, 1)
        assert rayleigh_upper_bound(s, cut) >= lam - 1e-12


def test_zero_width_collars_contract():
    # joins stay genuinely thin; rungs and loops land at w_mod = 0
    s = relabeled_chain(3, 0.1, {"j": 0.1, "r": 0.6, "s": 0.6})
    assert modified_half_width(0.6) == 0.0
    d = decompose(s, epsilon=0.35, force=True)
    assert len(d.thin_collars) == 6
    model = build_network(d)
    # one rule drops the zero-width collars from the network and the collar map
    wide = ["j000", "j001"]
    assert [tc.label for tc in d.wide_collars] == wide
    assert [e.label for e in model.edges] == wide
    assert list(collar_lambda1(d)) == wide
    assert model.n_nodes == 3
    assert [len(p) for p in model.node_pants] == [1, 2, 1]
    assert model.masses == (
        2.0 * math.pi,
        4.0 * math.pi,
        2.0 * math.pi,
    )
    # oracle for the 3-node path with these masses
    c = collar_conductance(0.1, modified_half_width(0.1))
    lap = np.array([[c, -c, 0.0], [-c, 2 * c, -c], [0.0, -c, c]])
    m = np.array(model.masses)
    sym = lap / np.sqrt(m[:, None] * m[None, :])
    expect = float(np.linalg.eigvalsh(sym)[1])
    assert network_lambda1(model) == pytest.approx(expect, rel=1e-12)


def test_everything_contracts_raises():
    s = chain(3, 0.6)
    d = decompose(s, epsilon=0.35, force=True)
    with pytest.raises(NetworkBuildError):
        build_network(d)


def test_no_thin_collars_raises_with_guidance():
    s = chain(3, 1.0)
    d = decompose(s, epsilon=0.05)
    assert d.thin_collars == ()
    with pytest.raises(NetworkBuildError, match="no thin separating system"):
        build_network(d)


def test_disconnected_network_detected():
    model = NetworkModel(
        genus=3,
        node_pants=(("p0",), ("p1",), ("p2",), ("p3",)),
        masses=(1.0, 1.0, 1.0, 1.0),
        edges=(
            NetworkEdge(label="a", a=0, b=1, conductance=1.0),
            NetworkEdge(label="b", a=2, b=3, conductance=1.0),
        ),
    )
    with pytest.raises(DisconnectedNetworkError):
        network_lambda1(model)


def test_dense_node_cap():
    n = 513
    model = path_model([1.0] * n, 1.0)
    with pytest.raises(ValueError, match="512"):
        network_lambda1(model)
    tiny = NetworkModel(genus=2, node_pants=(("p0",),), masses=(1.0,), edges=())
    with pytest.raises(ValueError):
        network_lambda1(tiny)


@pytest.mark.parametrize(
    "masses, a, b, conductance, match",
    [
        ((1.0, 1.0), 0, 1, -1.0, "conductance of edge 'e' .* got -1.0"),
        ((1.0, 1.0), 0, 1, math.nan, "conductance of edge 'e' .* got nan"),
        ((1.0, 1.0), 0, 1, math.inf, "conductance of edge 'e' .* got inf"),
        ((1.0, 0.0), 0, 1, 1.0, "mass of node 1 .* got 0.0"),
        ((-1.0, 1.0), 0, 1, 1.0, "mass of node 0 .* got -1.0"),
        ((1.0, 1.0), 0, 2, 1.0, "edge 'e' joins nodes 0, 2 outside 0..1"),
        ((1.0, 1.0), -1, 1, 1.0, "edge 'e' joins nodes -1, 1 outside 0..1"),
    ],
    ids=["negative-conductance", "nan-conductance", "inf-conductance", "zero-mass",
         "negative-mass", "endpoint-past-n", "negative-endpoint"],
)
def test_malformed_network_is_refused(masses, a, b, conductance, match):
    # network_lambda1 would return 0.0 or nan, or raise IndexError, on these
    with pytest.raises(ValueError, match=match):
        NetworkModel(
            genus=2,
            node_pants=tuple((f"p{i}",) for i in range(len(masses))),
            masses=masses,
            edges=(NetworkEdge(label="e", a=a, b=b, conductance=conductance),),
        )


def test_rayleigh_needs_a_bipartition():
    s = chain(5, 0.09)
    non_sep = make_multicut(s, ["r001a"])
    with pytest.raises(ValueError, match="exactly 2"):
        rayleigh_upper_bound(s, non_sep)
    # cutting everything leaves 8 components
    all_cut = make_multicut(s, [e.label for e in s.edges])
    with pytest.raises(ValueError, match="exactly 2"):
        rayleigh_upper_bound(s, all_cut)


def test_rayleigh_closed_form_on_end_cut():
    g = 6
    s = chain(g, 0.09)
    cut = make_multicut(s, ["j000"])
    c = collar_conductance(0.09, modified_half_width(0.09))
    m1 = 2.0 * math.pi  # one end pants
    m2 = 2.0 * math.pi * (2 * (g - 1) - 1)
    assert rayleigh_upper_bound(s, cut) == pytest.approx(
        c * (1 / m1 + 1 / m2), rel=1e-12
    )


def test_rayleigh_width_rule_falls_back_to_max_width():
    # moderately short crossing curve: w_mod = 0, so the bound uses w_max
    s = relabeled_chain(2, 0.1, {"j": 1.0, "s": 0.1})
    cut = make_multicut(s, ["j000"])
    upper = rayleigh_upper_bound(s, cut)
    c = collar_conductance(1.0, max_half_width(1.0))
    assert upper == pytest.approx(
        c * (1 / (2 * math.pi) + 1 / (2 * math.pi)), rel=1e-12
    )


def test_to_dict_round_trips_through_json():
    model = build_network(decompose(chain(4, 0.09)))
    blob = json.loads(json.dumps(model.to_dict(), sort_keys=True))
    assert blob["genus"] == 4
    assert len(blob["nodes"]) == model.n_nodes
    assert len(blob["edges"]) == len(model.edges)
    assert blob["nodes"][0]["mass"] == pytest.approx(2.0 * math.pi, rel=1e-15)


# at epsilon = 0.3 curves below 0.6 are thin, and those from about 0.545
# up have modified width 0: thick curves, wide collars and zero-width
# collars in one draw
FORCED_LENGTHS = (0.05, 0.3, 0.56, 0.58, 0.9)


def _forced_decompositions():
    for genus in range(2, 9):
        for k in range(6):
            rng = random.Random(100 * genus + k)
            s = random_pants_surface(rng, genus, lambda r: r.choice(FORCED_LENGTHS))
            yield decompose(s, epsilon=0.3, force=True)


def test_network_nodes_equal_the_two_stage_oracle_on_zero_width_collars():
    merged = 0
    for d in _forced_decompositions():
        assert d.forced
        try:
            want = graph_oracle.build_network(d)
        except NetworkBuildError as exc:
            with pytest.raises(NetworkBuildError, match=str(exc)):
                build_network(d)
            continue
        assert build_network(d) == want
        merged += want.n_nodes < len(d.thick_components)
    # the fixtures do merge thick components through zero-width collars
    assert merged >= 5


def test_forced_reports_build_the_oracle_network():
    s = relabeled_chain(6, 0.3, {"j": 0.57, "s": 0.9})
    d = decompose(s, epsilon=0.3, force=True)
    assert any(tc.half_width == 0.0 for tc in d.thin_collars)
    assert build_network(d) == graph_oracle.build_network(d)


@st.composite
def networks(draw):
    """Models with self-loops and parallel edges, in any edge order."""
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    ends = draw(st.lists(st.tuples(node, node), max_size=24))
    conductances = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e3),
            min_size=len(ends),
            max_size=len(ends),
        )
    )
    edges = tuple(
        NetworkEdge(label=f"e{k}", a=a, b=b, conductance=c)
        for k, ((a, b), c) in enumerate(zip(ends, conductances))
    )
    return NetworkModel(
        genus=2, node_pants=tuple((f"p{i}",) for i in range(n)), masses=(1.0,) * n, edges=edges
    )


@given(networks())
def test_laplacian_equals_the_edge_loop_bit_for_bit(model):
    assert np.array_equal(model.laplacian(), graph_oracle.laplacian(model))


def test_laplacian_of_built_networks_equals_the_edge_loop():
    models = [build_network(decompose(chain(g))) for g in (3, 10, 40)]
    for d in _forced_decompositions():
        try:
            models.append(build_network(d))
        except NetworkBuildError:
            pass
    for model in models:
        assert np.array_equal(model.laplacian(), graph_oracle.laplacian(model))
