"""Tests of the benchmark's seeded inputs.

    python3 -m pytest bench/test_surfgen.py
"""
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypspec import InvalidSurfaceError, build_from_description  # noqa: E402

import surfgen  # noqa: E402
import workloads  # noqa: E402


def _descriptions(seed):
    rng = random.Random(seed)
    return [surfgen.random_pants_description(rng, g) for g in range(2, 13)]


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_one_seed_always_gives_the_same_surfaces(seed):
    first = json.dumps(_descriptions(seed))
    assert json.dumps(_descriptions(seed)) == first
    assert json.dumps(_descriptions(seed + 1)) != first


@pytest.mark.parametrize("seed", range(5))
def test_every_surface_validates(seed):
    for desc in _descriptions(seed):
        surface = build_from_description(desc)
        m = 3 * surface.genus - 3
        thin = [e for e in surface.edges if e.length < 0.1]
        assert len(thin) == round(surfgen.THIN_SHARE * m)
        assert surfgen.component_count(desc, []) == 1


def test_workload_plans_depend_only_on_the_seed():
    for name in ("report", "multicut"):
        a = workloads.PLANS[name](3, None)
        b = workloads.PLANS[name](3, None)
        assert [op.key for op in a.ops] == [op.key for op in b.ops]
        assert a.cli_files == b.cli_files
    assert workloads.scaling_genus_lists(3) == workloads.scaling_genus_lists(3)
    assert workloads.verify_seeds(3) == workloads.verify_seeds(3)
    assert workloads.verify_seeds(3) != workloads.verify_seeds(4)


def test_scaling_lists_cover_the_range_and_reach_the_cap():
    lists = workloads.scaling_genus_lists(5)
    lo, hi = workloads.SCALING_GENERA
    assert lists[0][-1] == hi
    assert all(lo <= g <= hi for sub in lists for g in sub)


def test_component_count_matches_validation():
    desc = surfgen.random_pants_description(random.Random(2), 5)
    labels = [e["label"] for e in desc["edges"]]
    assert surfgen.component_count(desc, labels) == len(desc["vertices"])
    broken = dict(desc, edges=desc["edges"][:-1])
    with pytest.raises(InvalidSurfaceError):
        build_from_description(broken)
