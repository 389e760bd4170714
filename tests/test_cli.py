import json
import math

import pytest

from hypspec.cli import (
    EXIT_INADMISSIBLE_EPSILON,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHAIN10 = ["--family", "chain", "--genus", "10", "--length", "0.09"]


def test_build_emits_valid_surface_json(capsys):
    code, out, _ = run(capsys, "build", *CHAIN10)
    assert code == EXIT_OK
    desc = json.loads(out)
    assert desc["genus"] == 10
    assert len(desc["vertices"]) == 18
    assert len(desc["edges"]) == 27
    assert out.endswith("\n")


def test_build_reads_back_from_file(tmp_path, capsys):
    path = tmp_path / "surface.json"
    code, out, _ = run(capsys, "build", *CHAIN10, "--output", str(path))
    assert code == EXIT_OK
    assert out == ""
    code, out, _ = run(capsys, "geometry", "--input", str(path))
    assert code == EXIT_OK
    assert out.count("\n") == 28  # header + 27 edges


def test_geometry_table_values(capsys):
    code, out, _ = run(
        capsys, "geometry", "--family", "chain", "--genus", "2", "--length", "0.09"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == (
        "label,length,max_half_width,modified_half_width,collar_volume,shell_volume"
    )
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["label"] == "j000"
    assert float(row["length"]) == 0.09
    assert float(row["modified_half_width"]) == pytest.approx(
        1.7944086998410058, rel=1e-12
    )
    assert float(row["collar_volume"]) == pytest.approx(
        2 * 0.09 * math.sinh(1.7944086998410058), rel=1e-10
    )


def test_thickthin_json(capsys):
    code, out, _ = run(capsys, "thickthin", *CHAIN10)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["epsilon"] == 0.05
    assert doc["forced"] is False
    assert len(doc["thin_collars"]) == 27
    assert len(doc["thick_components"]) == 18


def test_cuts_json_and_bers_flag(capsys):
    code, out, _ = run(capsys, "cuts", *CHAIN10, "--i", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["edge_labels"] == ["j000"]
    assert doc["total_length"] == pytest.approx(0.09)
    assert doc["component_count"] == 2
    assert doc["bers_upper_bound"] == 78.0 * 9
    assert doc["bers_ok"] is True


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", *CHAIN10)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["network"] is not None
    assert len(doc["network"]["nodes"]) == 18
    assert doc["network_lambda1"] > 0
    assert len(doc["collar_ode_lambda1"]) == 27
    assert doc["collar_ode_lambda1"]["j000"] == pytest.approx(
        1.20094353769434, rel=1e-9
    )


def test_spectrum_reports_missing_network(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--family", "chain", "--genus", "3", "--length", "1.0"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["network"] is None
    assert doc["network_lambda1"] is None
    assert "no thin separating system" in doc["network_note"]
    assert doc["collar_ode_lambda1"] == {}


def test_bounds_json_flags(capsys):
    code, out, _ = run(capsys, "bounds", *CHAIN10)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["L1_restricted"] == pytest.approx(0.09)
    assert doc["cut"] == ["j000"]
    flags = doc["consistency_flags"]
    assert flags["cheeger_le_rayleigh"] is True
    assert flags["collar_modes_above_quarter"] is True
    assert flags["network_in_sanity_band"] is True


def test_spectrum_and_bounds_print_the_same_collar_modes(capsys):
    _, spectrum, _ = run(capsys, "spectrum", *CHAIN10)
    _, bounds, _ = run(capsys, "bounds", *CHAIN10)
    modes = json.loads(spectrum)["collar_ode_lambda1"]
    assert len(modes) == 27
    assert modes == json.loads(bounds)["collar_ode_lambda1"]


def test_bounds_accepts_explicit_cut(capsys):
    code, out, _ = run(capsys, "bounds", *CHAIN10, "--cut", "j004")
    assert code == EXIT_OK
    doc = json.loads(out)
    code2, out2, _ = run(capsys, "bounds", *CHAIN10)
    end_cut = json.loads(out2)
    # the balanced cut gives a strictly smaller upper bound than the end cut
    assert doc["rayleigh_upper"] < end_cut["rayleigh_upper"]


def test_scaling_csv_first_row(capsys):
    code, out, _ = run(
        capsys, "scaling", "--genus-list", "4,8", "--length", "0.09"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[-1]) == pytest.approx(0.363347047527, rel=1e-9)
    second = lines[2].split(",")
    assert float(second[-1]) == pytest.approx(0.273913515497, rel=1e-9)


def test_exit_code_invalid_genus(capsys):
    code, _, err = run(
        capsys, "build", "--family", "chain", "--genus", "1", "--length", "0.09"
    )
    assert code == EXIT_INVALID_INPUT
    assert err != ""


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "geometry", "--input", "/nonexistent/surface.json")
    assert code == EXIT_INVALID_INPUT
    assert err != ""


def test_exit_code_bad_genus_list(capsys):
    code, _, err = run(
        capsys, "scaling", "--genus-list", ",", "--length", "0.09"
    )
    assert code == EXIT_INVALID_INPUT


def test_exit_code_inadmissible_epsilon(capsys):
    code, _, err = run(capsys, "thickthin", *CHAIN10, "--epsilon", "0.2")
    assert code == EXIT_INADMISSIBLE_EPSILON
    assert "smallness" in err or "width" in err or "volume" in err


def test_forced_epsilon_succeeds(capsys):
    code, out, _ = run(
        capsys, "thickthin", *CHAIN10, "--epsilon", "0.2", "--force-epsilon"
    )
    assert code == EXIT_OK
    assert json.loads(out)["forced"] is True


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "bounds", *CHAIN10, "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["genus"] == 10


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hypspec" in capsys.readouterr().out
