import json
import math
import sys
from collections import Counter

import pytest

import hypspec.collars
import hypspec.intervals
import hypspec.spectral.corpus
import hypspec.spectral.gridfun
import hypspec.verify
from hypspec.spectral.corpus import CROSSING_SHAPES, CUTOFF_SHAPES
from hypspec.cli import (
    EXIT_INADMISSIBLE_EPSILON,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHAIN10 = ["--family", "chain", "--genus", "10", "--length", "0.09"]

VERIFY_SEED_42 = """\
collar-identity: 6/6
epsilon-admissible: 3/3
shell-detour: 10000/10000
interval-cut: 500/500
crossing-energy: 200/200
cutoff-extension: 100/100
collar-ode-quarter: 9/9
network-oracles: 4/4
verify: 8/8 checks passed (seed=42)
"""


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


def test_exit_code_cut_search_budget(capsys, monkeypatch):
    import hypspec.cuts

    monkeypatch.setattr(hypspec.cuts, "BNB_NODE_BUDGET", 5)
    code, out, err = run(capsys, "cuts", *CHAIN10, "--i", "3", "--method", "bnb")
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget of 5 nodes" in err


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


def test_verify_never_calls_the_scalar_detour_functions(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify made a scalar collar-distance call")

    for name in ("collar_distance", "shell_detour_length"):
        scalar = getattr(hypspec.collars, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hypspec" and getattr(module, name, None) is scalar:
                monkeypatch.setattr(module, name, refuse)
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42


def test_verify_draws_shell_detours_in_whole_array_rounds(capsys, monkeypatch):
    calls = []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            calls.append(("random", size))
            return self.rng.random(size)

        def standard_normal(self, size):
            calls.append(("standard_normal", size))
            return self.rng.standard_normal(size)

    check = hypspec.verify.check_shell_detour
    checks = dict(hypspec.verify.CHECKS)
    checks["shell-detour"] = lambda rng: check(CountingGenerator(rng))
    monkeypatch.setattr(hypspec.verify, "CHECKS", tuple(checks.items()))
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42
    # each round draws four arrays of one size, as many attempts as pairs
    # are still missing; seed 42 takes 4 rounds, not a call per attempt
    assert len(calls) % 4 == 0
    rounds = [calls[k : k + 4] for k in range(0, len(calls), 4)]
    sizes = [round_calls[0][1] for round_calls in rounds]
    for n, round_calls in zip(sizes, rounds):
        assert round_calls == [("random", n)] * 2 + [("standard_normal", n)] * 2
    assert sizes[0] == 10_000
    assert sizes == sorted(sizes, reverse=True)
    assert len(rounds) <= 20


def test_verify_never_reduces_one_interval_system_at_a_time(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify drew or reduced a single interval system")

    for name in ("find_cut_index", "cut_inequality_by_index", "random_interval_system"):
        scalar = getattr(hypspec.intervals, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hypspec" and getattr(module, name, None) is scalar:
                monkeypatch.setattr(module, name, refuse)
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42


def test_verify_computes_energies_per_stack_not_per_function(capsys, monkeypatch):
    # 300 functions go through dirichlet_energy; the calls must follow the
    # collar shapes (9 crossing, 4 cutoff), never the functions
    energy = hypspec.spectral.gridfun.dirichlet_energy
    calls = Counter()

    def counting(phase):
        def wrapper(f, region="all"):
            assert f.values.ndim == 3, "an energy call got a single function"
            calls[phase, f.ell, f.half_width, region] += 1
            return energy(f, region)

        return wrapper

    monkeypatch.setattr(hypspec.spectral.gridfun, "dirichlet_energy", counting("check"))
    monkeypatch.setattr(hypspec.spectral.corpus, "dirichlet_energy", counting("corpus"))
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42
    crossing = {(ell, w) for phase, ell, w, region in calls if region == "all"}
    cutoff = {(ell, w) for phase, ell, w, region in calls if region != "all"}
    assert crossing == set(CROSSING_SHAPES)
    assert cutoff == set(CUTOFF_SHAPES)
    checks = {key: n for key, n in calls.items() if key[0] == "check"}
    assert len(checks) == len(CROSSING_SHAPES) + len(CUTOFF_SHAPES)
    assert set(checks.values()) == {1}
    # the corpus samples each shape's stack once, then resamples only the
    # functions still over their shell budget; at seed 42 one halving does
    corpus = [n for key, n in calls.items() if key[0] == "corpus"]
    assert len(corpus) == len(CUTOFF_SHAPES)
    assert max(corpus) <= 2


def test_exit_code_verify_failed(capsys, monkeypatch):
    checks = dict(hypspec.verify.CHECKS)
    checks["network-oracles"] = lambda rng: (0, 1)
    monkeypatch.setattr(hypspec.verify, "CHECKS", tuple(checks.items()))
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[-2] == "network-oracles: 0/1"
    assert lines[-1] == "verify: 7/8 checks passed (seed=42)"
