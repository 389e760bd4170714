import json
import math
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hypspec.spectral.corpus
import hypspec.spectral.gridfun
import hypspec.verify
from hypspec.spectral.collar_ode import ExtrapolationWarning
from hypspec.spectral.corpus import CROSSING_SHAPES, CUTOFF_SHAPES
from hypspec.verify import CHECKS, SplitMix64
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
    assert sorted(doc) == [
        "bers_ok", "bers_upper_bound", "component_count", "edge_labels", "i", "total_length",
    ]


def test_cuts_has_no_method_option(capsys):
    # one search per cut problem: --method is an unrecognised argument
    with pytest.raises(SystemExit) as exc:
        main(["cuts", *CHAIN10, "--i", "3", "--method", "bnb"])
    assert exc.value.code == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --method bnb" in captured.err


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["edges"][0].update(length=None), "edge #0 has non-numeric length None"),
        (lambda d: d["edges"][0].update(twist=None), "edge #0 has non-numeric twist None"),
        (lambda d: d["edges"][0].update(length="abc"), "edge #0 has non-numeric length 'abc'"),
        (lambda d: d.update(edges=[1]), "edge #0 is not an object"),
        (lambda d: d.update(vertices=5), "vertices is not a list"),
    ],
    ids=["null-length", "null-twist", "text-length", "edge-not-object", "vertices-not-list"],
)
def test_exit_code_malformed_surface_file(tmp_path, capsys, edit, message):
    _, out, _ = run(capsys, "build", *CHAIN10)
    desc = json.loads(out)
    edit(desc)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == f"error: {message}\n"


def test_exit_code_bad_genus_list(capsys):
    code, _, err = run(
        capsys, "scaling", "--genus-list", ",", "--length", "0.09"
    )
    assert code == EXIT_INVALID_INPUT


def test_exit_code_cut_search_budget(capsys, monkeypatch):
    import hypspec.cuts

    monkeypatch.setattr(hypspec.cuts, "BNB_NODE_BUDGET", 5)
    code, out, err = run(capsys, "cuts", *CHAIN10, "--i", "3")
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget of 5 nodes" in err


def test_exit_code_unknown_rayleigh_cut_label(capsys):
    code, out, err = run(
        capsys, "bounds", "--family", "chain", "--genus", "4", "--length", "0.09",
        "--cut", "nope",
    )
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: unknown edge labels: ['nope']\n"


def test_exit_code_empty_rayleigh_cut(capsys):
    # an empty --cut names no cut; it must not fall back to the L1 cut
    code, out, err = run(
        capsys, "bounds", "--family", "chain", "--genus", "4", "--length", "0.09",
        "--cut", "",
    )
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: --cut must name at least one label\n"


def test_exit_code_repeated_rayleigh_cut_label(capsys):
    code, out, err = run(
        capsys, "bounds", "--family", "chain", "--genus", "4", "--length", "0.09",
        "--cut", "j001,j001",
    )
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: repeated edge labels: ['j001']\n"


@pytest.mark.parametrize("twist", ["nan", "inf"])
def test_exit_code_non_finite_twist(capsys, twist):
    code, out, err = run(
        capsys, "build", "--family", "chain", "--genus", "3", "--length", "0.09",
        "--twist", twist,
    )
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    # the family's one shared twist is refused once, not once per curve
    assert err == f"error: twist must be finite, got {twist}\n"


def test_curves_longer_than_the_sinh_overflow_end_in_exit_codes(tmp_path, capsys):
    # sinh(l/2) overflows past l ~ 1420.9; every command still ends in a
    # documented exit code, never an OverflowError
    _, out, _ = run(capsys, "build", "--family", "chain", "--genus", "3", "--length", "0.09")
    desc = json.loads(out)
    for e in desc["edges"]:
        e["length"] = 2000.0
    path = tmp_path / "long.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "geometry", "--input", str(path))
    assert code == EXIT_OK
    assert out.split("\n")[1] == "j000,2000,0,0,0,4700.80477458"
    # the Rayleigh cut's collar width underflows to 0
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: half_width must be positive and finite, got 0.0\n"
    # and just before, to the smallest subnormal, whose gd(w) is 0
    for e in desc["edges"]:
        e["length"] = 1490.0
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: half_width 5e-324 is too small: gd(w) underflows to 0\n"
    # and before that, to a subnormal whose l / (2 gd(w)) overflows: no Infinity is printed
    for e in desc["edges"]:
        e["length"] = 1450.0
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: conductance is not finite at length 1450.0, half_width 2.73861269e-315\n"
    code, out, err = run(
        capsys, "thickthin", "--family", "chain", "--genus", "3", "--length", "0.09",
        "--epsilon", "800",
    )
    assert code == EXIT_INADMISSIBLE_EPSILON
    assert out == ""
    assert err.startswith("error: epsilon=800.0 fails: width") and err.count("\n") == 1
    # 2 eps overflows: the volume condition fails at its l -> inf ends
    code, out, err = run(
        capsys, "thickthin", "--family", "chain", "--genus", "3", "--length", "0.09",
        "--epsilon", "1e308",
    )
    assert code == EXIT_INADMISSIBLE_EPSILON
    assert out == ""
    assert err == (
        "error: epsilon=1e+308 fails: width (arcsinh(1/sinh eps) - 2 >= 1 > eps), "
        "volume (collar/shell areas outside [1/2, 4]), "
        "smallness (eps >= 1/(2e^2) = 0.067667642)\n"
    )


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_curves_shorter_than_the_quotient_overflow_get_finite_collars(tmp_path, capsys):
    # 1/sinh(l/2) overflows below l ~ 1.1e-308; the collar stays finite,
    # of width log 4 - log l, and every command prints finite numbers
    _, out, _ = run(capsys, "build", "--family", "chain", "--genus", "3", "--length", "0.09")
    desc = json.loads(out)
    for e in desc["edges"]:
        if e["label"] == "j000":
            e["length"] = 1e-309
    path = tmp_path / "short.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "thickthin", "--input", str(path))
    assert code == EXIT_OK
    (collar,) = [c for c in _strict_json(out)["thin_collars"] if c["label"] == "j000"]
    assert collar["half_width"] == pytest.approx(math.log(4.0) - math.log(1e-309) - 2.0, rel=1e-15)
    code, out, _ = run(capsys, "geometry", "--input", str(path))
    assert code == EXIT_OK
    row = out.split("\n")[1].split(",")
    assert row[0] == "j000" and all(math.isfinite(float(x)) for x in row[1:])
    # the collar ODE resolves widths up to about 200 and warns past them
    with pytest.warns(ExtrapolationWarning, match="half_width=710.885"):
        code, out, _ = run(capsys, "bounds", "--input", str(path))
    assert code == EXIT_OK
    assert _strict_json(out)["collar_ode_lambda1"]["j000"] > 0.25
    # T(2 eps) -> 4/e^2 and S(2 eps) -> 4(e-1)/e^2, both inside [1/2, 4]
    code, out, _ = run(capsys, "thickthin", "--input", str(path), "--epsilon", "1e-310")
    assert code == EXIT_OK
    _strict_json(out)


def test_exit_code_overflowing_conductance_sum(tmp_path, capsys):
    # each crossing conductance is finite, near 1e308, but their sum is not
    desc = json.loads((Path(__file__).parent / "golden/random-g3-s1-continuous.json").read_text())
    for e in desc["edges"]:
        e["length"] = 1407.5
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "bounds", "--input", str(path))
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: the sum of the cut's 3 crossing conductances overflows\n"


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


PUBLIC_API = [
    "ChainFamilyParams", "DEFAULT_EPSILON", "Edge", "EpsilonChecklist",
    "InadmissibleEpsilonError", "InvalidSurfaceError", "Multicut", "NetworkModel",
    "PantsSurface", "SpectralReport", "ThickThinDecomposition", "ThinCollar",
    "assemble_report", "bers_upper_bound", "build_chain_family", "build_from_description",
    "build_network", "chain_central_join_label", "chain_join_label", "cheeger_lower_bound",
    "collar_conductance", "collar_volume", "component_count_after_removal",
    "crossing_energy_check", "cutoff_extension_check", "decompose", "dirichlet_energy",
    "dump_surface", "epsilon_admissible", "gudermannian", "l2_norm_sq", "load_surface",
    "make_multicut", "max_half_width", "min_separating_length", "modified_half_width",
    "network_lambda1", "rayleigh_upper_bound", "scaling_rows_to_csv", "scaling_study",
    "shell_detour_lengths", "shell_volume", "surface_to_dict", "total_volume",
]
SPECTRAL_API = [
    "CollarGridFunction", "CrossingCheck", "CutoffCheck",
    "DisconnectedNetworkError", "ExtrapolationWarning", "HypothesisNotMet",
    "NetworkBuildError", "NetworkEdge", "NetworkModel", "ScalingRow", "SpectralReport",
    "assemble_report", "build_network", "cheeger_lower_bound", "collar_conductance",
    "collar_dirichlet_lambda1_batch", "crossing_corpus", "crossing_energy_check",
    "cutoff_corpus", "cutoff_extension_check", "dirichlet_energy", "l2_norm_sq",
    "network_lambda1", "rayleigh_upper_bound", "scaling_rows_to_csv", "scaling_study",
]


def test_public_api_is_the_listed_names():
    # adding or removing a public name must be a deliberate edit of these lists;
    # the package resolves its names lazily, so they are read from dir(), not
    # from vars(), which holds only the names resolved so far
    public = [
        name
        for name in dir(hypspec)
        if not name.startswith("_") and not isinstance(getattr(hypspec, name), types.ModuleType)
    ]
    assert sorted(public) == sorted(PUBLIC_API)
    assert sorted(hypspec.spectral.__all__) == sorted(SPECTRAL_API)


@pytest.mark.parametrize(
    "package, names", [("hypspec", PUBLIC_API), ("hypspec.spectral", SPECTRAL_API)]
)
def test_lazy_names_behave_like_eager_imports(package, names):
    module = sys.modules[package]
    for name in names:
        value = getattr(module, name)
        home = "hypspec.thickthin" if name == "DEFAULT_EPSILON" else value.__module__
        assert home.startswith("hypspec.") and getattr(sys.modules[home], name) is value
        assert name not in vars(module)  # looked up on every access, never copied
    star = {}
    exec(f"from {package} import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(names)
    assert set(names) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_a_patch_of_the_defining_module_is_seen_through_the_package(monkeypatch):
    def patched(*args, **kwargs):
        raise AssertionError("unused")

    monkeypatch.setattr(hypspec.spectral.report, "assemble_report", patched)
    assert hypspec.assemble_report is patched
    assert hypspec.spectral.assemble_report is patched


def _fresh_python(script, *args):
    """Stdout of ``script`` run with ``args`` in a new interpreter on this package."""
    package_root = str(Path(hypspec.verify.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _fresh_cli(*argv):
    """(exit code, stdout, loaded module names) of ``hypspec argv`` in a new interpreter."""
    script = (
        "import contextlib, io, json, runpy, sys\n"
        "sys.argv = ['hypspec', *sys.argv[1:]]\n"
        "out = io.StringIO()\n"
        "try:\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runpy.run_module('hypspec.cli', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    code = done.code\n"
        "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))\n"
    )
    code, out, modules = json.loads(_fresh_python(script, *argv))
    return code, out, set(modules)


NUMPY_FREE_COMMANDS = [
    ("--version",),
    ("build", *CHAIN10),
    ("geometry", *CHAIN10),
    ("cuts", *CHAIN10, "--i", "1"),
    ("thickthin", *CHAIN10),
]
REPORT_COMMANDS = [("thickthin", *CHAIN10), ("spectrum", *CHAIN10), ("bounds", *CHAIN10)]
# thickthin is in both lists: it is run once
FRESH_COMMANDS = NUMPY_FREE_COMMANDS + REPORT_COMMANDS[1:] + [
    ("cuts", *CHAIN10, "--i", "2"),
    ("scaling", "--genus-list", "4,8", "--length", "0.09"),
    ("verify", "--seed", "42"),
]


@pytest.fixture(scope="module")
def fresh_runs():
    return {argv: _fresh_cli(*argv) for argv in FRESH_COMMANDS}


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=" ".join)
def test_a_fresh_combinatorial_command_never_loads_numpy(fresh_runs, argv):
    code, _, modules = fresh_runs[argv]
    assert code == EXIT_OK
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
def test_a_fresh_report_command_never_loads_the_verify_modules(fresh_runs, argv):
    code, _, modules = fresh_runs[argv]
    assert code == EXIT_OK
    verify_modules = {
        "hypspec.verify", "hypspec.intervals", "hypspec.spectral.gridfun",
        "hypspec.spectral.corpus",
    }
    assert not modules & verify_modules


CUTLESS_COMMANDS = [
    ("--version",),
    ("build", *CHAIN10),
    ("geometry", *CHAIN10),
    ("thickthin", *CHAIN10),
    ("spectrum", *CHAIN10),
    ("verify", "--seed", "42"),
]


@pytest.mark.parametrize("argv", CUTLESS_COMMANDS, ids=" ".join)
def test_a_fresh_command_that_cuts_nothing_never_loads_the_cut_search(fresh_runs, argv):
    code, _, modules = fresh_runs[argv]
    assert code == EXIT_OK
    assert "hypspec.cuts" not in modules


SPECTRAL_COMMANDS = [
    ("spectrum", *CHAIN10),
    ("bounds", *CHAIN10),
    ("scaling", "--genus-list", "4,8", "--length", "0.09"),
    ("verify", "--seed", "42"),
]


@pytest.mark.parametrize("argv", SPECTRAL_COMMANDS, ids=" ".join)
def test_a_fresh_spectral_command_never_loads_numpy_polynomial(fresh_runs, argv):
    # the collar solve's Gauss-Legendre rule is computed in hypspec itself
    code, _, modules = fresh_runs[argv]
    assert code == EXIT_OK
    assert "hypspec.spectral.collar_ode" in modules
    assert not {m for m in modules if m.startswith("numpy.polynomial")}


def test_importing_the_package_loads_none_of_its_modules():
    script = (
        "import sys, hypspec\n"
        "print(sorted(m for m in sys.modules if 'hypspec' in m))\n"
        "print(hypspec.cuts.__name__, hypspec.spectral.network.__name__)\n"
    )
    # a submodule is still reachable as an attribute, as under eager imports
    assert _fresh_python(script) == "['hypspec']\nhypspec.cuts hypspec.spectral.network\n"


def test_in_process_calls_print_what_fresh_processes_print(fresh_runs, capsys):
    # main() builds its parser once per process; every command run after
    # another must still print what it prints in a process of its own
    from hypspec.cli import _build_parser

    for argv in FRESH_COMMANDS * 2:
        try:
            code = main(list(argv))
        except SystemExit as done:
            code = done.code
        out = capsys.readouterr().out
        assert (code, out) == fresh_runs[argv][:2], argv
    assert _build_parser() is _build_parser()


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
    # are still missing; seed 42 takes 3 rounds, not a call per attempt
    assert len(calls) % 4 == 0
    rounds = [calls[k : k + 4] for k in range(0, len(calls), 4)]
    sizes = [round_calls[0][1] for round_calls in rounds]
    for n, round_calls in zip(sizes, rounds):
        assert round_calls == [("random", n)] * 2 + [("standard_normal", n)] * 2
    assert sizes[0] == 10_000
    assert sizes == sorted(sizes, reverse=True)
    assert len(rounds) <= 20


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
    # the corpus builds each shape's whole stack once per halving round,
    # until no function is over its shell budget; at seed 42 one halving does
    corpus = [n for key, n in calls.items() if key[0] == "corpus"]
    assert len(corpus) == len(CUTOFF_SHAPES)
    assert max(corpus) <= 2


def test_verify_draws_its_corpora_and_interval_systems_as_whole_arrays(capsys, monkeypatch):
    calls = []

    class RecordingGenerator:
        def __init__(self, rng, check):
            self.rng, self.check = rng, check

        def __getattr__(self, method):
            def call(*args, **kwargs):
                calls.append((self.check, method, args, kwargs))
                return getattr(self.rng, method)(*args, **kwargs)

            return call

    checks = {
        name: (lambda rng, name=name, check=check: check(RecordingGenerator(rng, name)))
        for name, check in CHECKS
        if name in ("interval-cut", "crossing-energy", "cutoff-extension")
    }
    monkeypatch.setattr(
        hypspec.verify, "CHECKS", tuple((name, checks.get(name, check)) for name, check in CHECKS)
    )
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42
    by_check = {name: [c[1:] for c in calls if c[0] == name] for name in checks}
    # every n at once, then one call per interval count 2..8 drawn
    intervals = by_check["interval-cut"]
    assert intervals[0] == ("integers", (2, 9), {"size": 500})
    assert 1 <= len(intervals) - 1 <= 7
    assert all(
        method == "random" and len(shape) == 2 and not kwargs
        for method, (shape,), kwargs in intervals[1:]
    )
    assert [method for method, _, _ in by_check["crossing-energy"]] == [
        "integers",
        "standard_normal",
        "integers",
        "uniform",
    ]
    assert by_check["cutoff-extension"] == [("random", ((100, 4),), {})]


def test_verify_builds_each_grids_quadrature_once(capsys):
    quadrature = hypspec.spectral.gridfun._quadrature
    quadrature.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--seed", "42")
        assert out == VERIFY_SEED_42
    # the whole grid of each crossing shape, core and shell of each cutoff shape
    info = quadrature.cache_info()
    assert info.misses == info.currsize == len(CROSSING_SHAPES) + 2 * len(CUTOFF_SHAPES)
    assert info.hits > info.misses


def test_energy_and_interval_checks_pass_in_full_on_fifty_seeds():
    # each seed runs verify's checks in order up to the last of the three,
    # so every check sees verify's own draws
    names = [name for name, _ in CHECKS]
    upto = CHECKS[: names.index("cutoff-extension") + 1]
    failing = {}
    for seed in range(50):
        rng = SplitMix64(seed)
        results = {name: check(rng) for name, check in upto}
        for name in ("interval-cut", "crossing-energy", "cutoff-extension"):
            passed, total = results[name]
            if passed != total:
                failing[seed, name] = (passed, total)
    assert failing == {}


def test_a_fresh_verify_never_imports_numpy_ma(fresh_runs):
    # numpy.ma adds 12-20 ms of import to a fresh process; np.unique pulls it in
    code, out, modules = fresh_runs["verify", "--seed", "42"]
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42
    assert "numpy.ma" not in modules


def test_a_fresh_verify_never_loads_numpy_random(fresh_runs):
    # importing numpy.random raises a fresh process's peak RSS from about
    # 27 to 33 MB, over half of it OpenSSL (secrets -> hmac -> _hashlib)
    # for entropy seeding; verify draws from its own SplitMix64 stream
    code, out, modules = fresh_runs["verify", "--seed", "42"]
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42
    assert not {m for m in modules if m == "numpy.random" or m.startswith("numpy.random.")}
    assert not modules & {"secrets", "hmac", "_hashlib"}


def test_exit_code_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--seed", "-1")
    assert code == EXIT_INVALID_INPUT
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_verify_accepts_seeds_of_two_to_the_64_and_above(capsys):
    # read modulo 2^64: the stream of 2^64 + 42 is that of 42
    seed = 2**64 + 42
    code, out, _ = run(capsys, "verify", "--seed", str(seed))
    assert code == EXIT_OK
    assert out == VERIFY_SEED_42.replace("(seed=42)", f"(seed={seed})")


def test_exit_code_verify_failed(capsys, monkeypatch):
    checks = dict(hypspec.verify.CHECKS)
    checks["network-oracles"] = lambda rng: (0, 1)
    monkeypatch.setattr(hypspec.verify, "CHECKS", tuple(checks.items()))
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[-2] == "network-oracles: 0/1"
    assert lines[-1] == "verify: 7/8 checks passed (seed=42)"
