import json
import math

import mpmath
import pytest

from hypspec.spectral import (
    assemble_report,
    cheeger_lower_bound,
    scaling_rows_to_csv,
    scaling_study,
)
from hypspec.spectral.report import _scaling_row
from hypspec.surfaces import ChainFamilyParams, build_chain_family

mpmath.mp.dps = 50


def chain(genus, length=0.09):
    return build_chain_family(ChainFamilyParams(genus=genus, core_length=length))


def test_cheeger_formula_against_mpmath():
    l1, vol = 0.1, float(36 * mpmath.pi)
    expect = float(mpmath.mpf("0.1") ** 2 / (4 * (36 * mpmath.pi) ** 2))
    got = cheeger_lower_bound(l1, vol)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(1.9544981412488e-07, rel=1e-10)


def test_cheeger_caps_at_one_quarter():
    # h = L1/vol large: the quadratic bound saturates at 1/4
    assert cheeger_lower_bound(100.0, 1.0) == 0.25
    assert cheeger_lower_bound(2.0, 2.0) == 0.25  # h = 1 exactly
    below = cheeger_lower_bound(1.999, 2.0)
    assert below < 0.25


def test_cheeger_input_validation():
    with pytest.raises(ValueError):
        cheeger_lower_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        cheeger_lower_bound(1.0, -2.0)
    with pytest.raises(ValueError):
        cheeger_lower_bound(math.inf, 1.0)


def test_full_report_on_short_chain():
    rep = assemble_report(chain(10, 0.09))
    assert rep.genus == 10
    assert not rep.forced_epsilon
    assert rep.l1_restricted == pytest.approx(0.09, rel=1e-15)
    assert rep.cut_labels == ("j000",)
    assert rep.volume == pytest.approx(36.0 * math.pi, rel=1e-15)
    assert rep.network_lambda1 is not None
    assert rep.network_note == ""
    # order: rigorous lower <= surrogate <= test-function upper
    assert rep.cheeger_lower <= rep.rayleigh_upper
    assert rep.consistency_flags["cheeger_le_rayleigh"] is True
    assert rep.consistency_flags["collar_modes_above_quarter"] is True
    assert rep.consistency_flags["network_in_sanity_band"] is True
    # every thin collar shares one geometry here, so one mode value
    vals = set(rep.collar_lambda1.values())
    assert len(rep.collar_lambda1) == 27
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(1.20094353769434, rel=1e-9)


def test_report_without_thin_part():
    rep = assemble_report(chain(2, 1.0))
    assert rep.network_lambda1 is None
    assert "no thin separating system" in rep.network_note
    assert rep.consistency_flags["network_in_sanity_band"] is None
    assert rep.collar_lambda1 == {}
    # the rigorous bounds still populate
    assert rep.cheeger_lower > 0.0
    assert rep.rayleigh_upper > 0.0


def test_report_serializes_to_json():
    rep = assemble_report(chain(4, 0.09))
    blob = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert blob["genus"] == 4
    assert blob["L1_restricted"] == pytest.approx(0.09)
    assert blob["cut"] == ["j000"]
    assert set(blob["collar_ode_lambda1"]) == {e_label for e_label in (
        "s000", "s001", "j000", "j001", "j002", "r001a", "r001b", "r002a", "r002b"
    )}
    assert blob["consistency_flags"]["cheeger_le_rayleigh"] is True


def test_scaling_row_matches_direct_computation():
    row = _scaling_row(8, 0.09, 0.05, False)
    rep = assemble_report(chain(8, 0.09))
    assert row.l1 == rep.l1_restricted
    assert row.volume == rep.volume
    assert row.cheeger_lower == rep.cheeger_lower
    assert row.network_lambda1 == rep.network_lambda1
    # the study's rayleigh uses the balanced central cut, which beats
    # (or ties) the end cut chosen by L1 on long chains
    assert row.rayleigh_upper <= rep.rayleigh_upper + 1e-15
    assert row.normalized_gap == pytest.approx(
        row.network_lambda1 * 64 / 0.09, rel=1e-15
    )


def test_scaling_study_frozen_first_rows():
    rows = scaling_study([4, 8], 0.09)
    assert [r.genus for r in rows] == [4, 8]
    assert rows[0].normalized_gap == pytest.approx(0.363347047527, rel=1e-9)
    assert rows[1].normalized_gap == pytest.approx(0.273913515497, rel=1e-9)


def test_scaling_study_rejects_empty_list():
    with pytest.raises(ValueError):
        scaling_study([], 0.09)


def test_csv_shape_and_digits():
    text = scaling_rows_to_csv(scaling_study([4], 0.09))
    lines = text.splitlines()
    assert lines[0] == (
        "genus,L1,volume,cheeger_lower,network_lambda1,"
        "rayleigh_upper,lambda1_times_g2_over_L1"
    )
    assert len(lines) == 2
    assert text.endswith("\n")
    fields = lines[1].split(",")
    assert fields[0] == "4"
    assert fields[1] == "0.09"
    # 12 significant digits
    assert fields[2] == f"{12 * math.pi:.12g}"
