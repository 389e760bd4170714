import functools
import heapq
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import hypspec.cuts as cuts
from hypspec.cuts import (
    EXHAUSTIVE_EDGE_LIMIT,
    Multicut,
    bers_upper_bound,
    component_count_after_removal,
    make_multicut,
    min_separating_length,
)
from hypspec.spectral.report import assemble_report
from hypspec.surfaces import (
    ChainFamilyParams,
    PantsSurface,
    build_chain_family,
    build_from_description,
    surface_to_dict,
)

from random_pants import continuous_length, random_pants_surface, tie_length

LENGTH_DRAWS = {"continuous": continuous_length, "ties": tie_length}


def chain(genus, length=0.09, **kw):
    return build_chain_family(ChainFamilyParams(genus=genus, core_length=length, **kw))


def perturbed_chain(genus, lengths):
    """Chain with per-edge lengths overridden from a {label: length} map."""
    desc = surface_to_dict(chain(genus))
    for e in desc["edges"]:
        if e["label"] in lengths:
            e["length"] = lengths[e["label"]]
    return build_from_description(desc)


def test_single_join_is_the_cheapest_separating_curve():
    for g in range(2, 11):
        cut = min_separating_length(chain(g), 1)
        assert cut.edge_labels == ("j000",)
        assert cut.total_length == pytest.approx(0.09, rel=1e-15)
        assert cut.component_count == 2


def test_methods_agree_on_small_chains():
    for g in (2, 3, 4, 5, 6, 7):
        s = chain(g)
        for i in range(1, min(2 * g - 3, 4) + 1):
            ex = min_separating_length(s, i, method="exhaustive")
            bb = min_separating_length(s, i, method="bnb")
            assert ex == bb
            assert ex.component_count >= i + 1
            assert bb.component_count >= i + 1


def test_methods_agree_on_random_lengths():
    import random

    rng = random.Random(7)
    for trial in range(20):
        g = rng.randint(3, 7)
        base = chain(g)
        lengths = {e.label: rng.uniform(0.05, 1.5) for e in base.edges}
        s = perturbed_chain(g, lengths)
        i = rng.randint(1, min(2 * g - 3, 3))
        ex = min_separating_length(s, i, method="exhaustive")
        bb = min_separating_length(s, i, method="bnb")
        assert bb == ex


def test_auto_dispatch_matches_exhaustive_under_the_limit():
    s = chain(7)  # 18 edges <= EXHAUSTIVE_EDGE_LIMIT
    assert len(s.edges) <= EXHAUSTIVE_EDGE_LIMIT
    auto = min_separating_length(s, 2)
    ex = min_separating_length(s, 2, method="exhaustive")
    assert auto == ex


def test_large_genus_uses_branch_and_bound():
    s = chain(12)  # 33 edges: exhaustive would be 2^33 subsets
    cut = min_separating_length(s, 1)
    assert cut.edge_labels == ("j000",)
    assert min_separating_length(s, 1, method="bnb").edge_labels == ("j000",)


def test_auto_at_i1_never_runs_the_subset_searches(monkeypatch):
    def refuse(surface, i):
        raise AssertionError("auto at i = 1 must not run a subset search")

    monkeypatch.setattr(cuts, "_min_cut_exhaustive", refuse)
    monkeypatch.setattr(cuts, "_min_cut_branch_and_bound", refuse)
    report = assemble_report(chain(7))
    assert report.cut_labels == ("j000",)
    assert report.l1_restricted == pytest.approx(0.09, rel=1e-15)


def test_branch_and_bound_budget_raises(monkeypatch):
    monkeypatch.setattr(cuts, "BNB_NODE_BUDGET", 5)
    heap_lengths = []

    def recording_push(heap, item):
        heapq.heappush(heap, item)
        heap_lengths.append(len(heap))

    monkeypatch.setattr(
        cuts, "heapq", SimpleNamespace(heappush=recording_push, heappop=heapq.heappop)
    )
    with pytest.raises(ValueError) as info:
        min_separating_length(chain(10), 3, method="bnb")
    message = str(info.value)
    for part in ("budget of 5 nodes", "genus 10", "i=3", "27 edges"):
        assert part in message
    # the budget bounds queued nodes, not pops: the heap never outgrows it
    assert heap_lengths and max(heap_lengths) <= 5


def test_increasing_i_costs_more():
    s = chain(8)
    prev = 0.0
    for i in range(1, 6):
        cut = min_separating_length(s, i)
        assert cut.total_length >= prev - 1e-15
        prev = cut.total_length


def test_bers_bound_dominates_chain_minima():
    for g in (2, 4, 8, 10):
        s = chain(g)
        for i in range(1, min(2 * g - 3, 5) + 1):
            cut = min_separating_length(s, i)
            assert cut.total_length <= bers_upper_bound(i, g)


def test_bers_bound_formula():
    assert bers_upper_bound(1, 2) == 78.0
    assert bers_upper_bound(3, 5) == 78.0 * 3 * 4


def test_make_multicut_validates_labels():
    s = chain(4)
    cut = make_multicut(s, ["j000"])
    assert isinstance(cut, Multicut)
    assert cut.component_count == 2
    assert cut.total_length == pytest.approx(0.09, rel=1e-15)
    with pytest.raises(KeyError):
        make_multicut(s, ["nope"])
    # the empty cut is a legal (non-separating) record
    empty = make_multicut(s, [])
    assert empty.total_length == 0.0
    assert empty.component_count == 1


def test_non_separating_sets_are_rejected_by_minimizers():
    s = chain(5)
    # removing a single rung of a doubled pair does not disconnect
    assert component_count_after_removal(s, ("r001a",)) == 1
    cut = make_multicut(s, ["r001a"])
    assert cut.component_count == 1


def test_i_range_validation():
    s = chain(4)
    with pytest.raises(ValueError):
        min_separating_length(s, 0)
    with pytest.raises(ValueError):
        min_separating_length(s, 2 * 4 - 2)  # i > 2g-3
    with pytest.raises(ValueError):
        min_separating_length(s, 1, method="magic")


def test_exhaustive_total_is_a_true_minimum():
    # brute-force cross-check independent of the library's own exhaustive path
    s = chain(4, 0.09)
    labels = [e.label for e in s.edges]
    best = math.inf
    for r in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            if component_count_after_removal(s, combo) >= 2:
                total = sum(s.edge_by_label(x).length for x in combo)
                best = min(best, total)
    assert min_separating_length(s, 1).total_length == pytest.approx(best, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    genus=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    i=st.integers(min_value=1, max_value=3),
)
def test_property_methods_agree(genus, seed, i):
    import random

    rng = random.Random(seed)
    base = chain(genus)
    lengths = {e.label: rng.uniform(0.05, 2.0) for e in base.edges}
    s = perturbed_chain(genus, lengths)
    ex = min_separating_length(s, i, method="exhaustive")
    bb = min_separating_length(s, i, method="bnb")
    assert bb == ex
    assert bb.component_count >= i + 1


def _oracle_surfaces(genus, kind):
    """Seeded random surfaces small enough for the exhaustive oracle."""
    seeds = range(2) if genus == 7 else range(4)  # 2^18 subsets per genus-7 scan
    return [
        random_pants_surface(random.Random(100 * genus + k), genus, LENGTH_DRAWS[kind])
        for k in seeds
    ]


def _has_bridge(s):
    return any(component_count_after_removal(s, (e.label,)) > 1 for e in s.edges)


def test_oracle_fixtures_cover_bridges_and_bridgeless_blocks():
    surfaces = [s for g in range(2, 8) for kind in LENGTH_DRAWS for s in _oracle_surfaces(g, kind)]
    assert any(_has_bridge(s) for s in surfaces)
    assert any(not _has_bridge(s) for s in surfaces)
    assert any(len({e.a, e.b}) == 1 for s in surfaces for e in s.edges)  # self-loops
    assert any(
        len({(e.a, e.b) for e in s.edges}) < len(s.edges) for s in surfaces
    )  # parallel curves


@pytest.mark.parametrize("kind", sorted(LENGTH_DRAWS))
@pytest.mark.parametrize("genus", range(2, 8))
def test_global_min_cut_equals_exhaustive_oracle(genus, kind):
    for s in _oracle_surfaces(genus, kind):
        assert min_separating_length(s, 1) == min_separating_length(s, 1, method="exhaustive")


@pytest.mark.parametrize("kind", sorted(LENGTH_DRAWS))
def test_global_min_cut_equals_branch_and_bound(kind):
    for genus in range(8, 13):
        for k in range(2):
            s = random_pants_surface(random.Random(100 * genus + k), genus, LENGTH_DRAWS[kind])
            assert min_separating_length(s, 1) == min_separating_length(s, 1, method="bnb")


# short tied lengths, as on a surface whose thin curves share a few values;
# the mixed draw adds thick curves, which the contraction removes
SHORT_TIES = (0.02, 0.05, 0.09)
MIXED_TIES = (0.02, 0.05, 0.09, 1.5)


def _contraction_fixtures(lengths):
    return [
        random_pants_surface(random.Random(7000 + 100 * genus + k), genus, lambda r: r.choice(lengths))
        for genus in range(2, 7)
        for k in range(5)
    ]


def _recording_stoer_wagner(monkeypatch):
    """Replace Stoer-Wagner by a wrapper that records the vertex count it sees."""
    seen = []
    stoer_wagner = cuts._stoer_wagner

    def recording(weighted):
        weighted = list(weighted)
        seen.append(len({v for a, b, _ in weighted for v in (a, b)}))
        return stoer_wagner(weighted)

    monkeypatch.setattr(cuts, "_stoer_wagner", recording)
    return seen


@functools.lru_cache(maxsize=4)
def _exact_order(s):
    """Every nonempty label set of ``s`` by (exact total length, sorted label tuple)."""
    edges = sorted(s.edges, key=lambda e: e.label)
    exact = [Fraction(e.length) for e in edges]
    denom = math.lcm(*(x.denominator for x in exact))
    units = [int(x * denom) for x in exact]
    m = len(edges)

    def key(mask):
        picked = [j for j in range(m) if mask >> j & 1]
        return sum(units[j] for j in picked), tuple(edges[j].label for j in picked)

    return [labels for _, labels in sorted(map(key, range(1, 1 << m)))]


def _exact_min_cut(s, i=1):
    """The L_i optimum under exact sums: the first set in exact order leaving i+1 pieces."""
    for labels in _exact_order(s):
        if component_count_after_removal(s, labels) >= i + 1:
            return make_multicut(s, labels)


@pytest.mark.parametrize("lengths", [SHORT_TIES, MIXED_TIES], ids=["short", "mixed"])
def test_contracted_min_cut_equals_exhaustive_on_tied_lengths(monkeypatch, lengths):
    surfaces = _contraction_fixtures(lengths)
    assert any(_has_bridge(s) for s in surfaces)
    assert any(not _has_bridge(s) for s in surfaces)
    seen = _recording_stoer_wagner(monkeypatch)
    contracted = 0
    for s in surfaces:
        seen.clear()
        got = min_separating_length(s, 1)
        assert got == _exact_min_cut(s)
        assert cuts._min_cut_exhaustive(s, 1) == got
        # a bridgeless surface is one block holding every pants
        contracted += not _has_bridge(s) and any(v < len(s.vertices) for v in seen)
    if lengths == MIXED_TIES:
        assert contracted >= 3


def test_a_thick_curve_above_the_cheapest_star_is_contracted(monkeypatch):
    # the dual graph is K4, bridgeless: one block of four pants.  Curve
    # c000 (length 2) outweighs the star of p002 (three curves of 0.05),
    # so no minimum cut holds it and Stoer-Wagner sees three vertices
    pants = ["p000", "p001", "p002", "p003"]
    pairs = [(a, b) for i, a in enumerate(pants) for b in pants[i + 1 :]]
    s = build_from_description(
        {
            "genus": 3,
            "vertices": pants,
            "edges": [
                {"a": a, "b": b, "length": 2.0 if k == 0 else 0.05, "label": f"c{k:03d}"}
                for k, (a, b) in enumerate(pairs)
            ],
        }
    )
    assert not _has_bridge(s)
    seen = _recording_stoer_wagner(monkeypatch)
    cut = min_separating_length(s, 1)
    assert seen == [3]
    assert cut == cuts._min_cut_exhaustive(s, 1)
    # the stars of p002 and p003 tie in length; p002's labels come first
    assert cut.edge_labels == ("c001", "c003", "c005")


# one of the short fixtures: 0.02 + 0.05 + 0.02 and 0.09 differ exactly
# but round to the same float
FLOAT_TIE_SURFACE = random_pants_surface(random.Random(7603), 6, lambda r: r.choice(SHORT_TIES))


def test_every_method_picks_the_exact_side_of_a_float_tie():
    s = FLOAT_TIE_SURFACE
    tie = make_multicut(s, ["c000", "c002", "c013"])
    assert tie.total_length == 0.09 and tie.component_count == 2
    assert _exact_min_cut(s) == make_multicut(s, ["c003"])
    for method in ("auto", "exhaustive", "bnb"):
        assert min_separating_length(s, 1, method=method).edge_labels == ("c003",)


@pytest.mark.parametrize("lengths", [SHORT_TIES, MIXED_TIES], ids=["short", "mixed"])
def test_every_method_returns_the_exact_optimum_on_tied_lengths(lengths):
    for s in _contraction_fixtures(lengths):
        for i in range(1, min(3, 2 * s.genus - 3) + 1):
            want = _exact_min_cut(s, i)
            for method in ("auto", "exhaustive", "bnb"):
                assert min_separating_length(s, i, method=method) == want, (method, i)
