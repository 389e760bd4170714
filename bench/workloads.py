"""The benchmark's four workloads: inputs from a seed, ops, output checks.

Each workload loads one layer heavily and leaves others idle, so a
change to one layer shows on one workload while another shows that
nothing else moved (see README.md).  A workload is a ``Plan``: the ops
of one pass, each a public ``hypspec`` call on seeded inputs with a
check of its output, plus the representative CLI command.

Ops look their function up through the ``hypspec`` module at call time,
so the traced run sees them through its replacements.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import hypspec
import hypspec.cli

from surfgen import component_count, random_pants_description

DEFAULT_SEED = 1
CHAIN_LENGTH = 0.09
REPORT_GENERA = tuple(range(4, 13))
REPORT_CHAIN_STRATA = ((8, 23), (24, 39), (40, 64))
REPORT_CLI_GENUS = 10
SCALING_GENERA = (8, 256)  # 256 is the largest genus under the dense cap
SCALING_LISTS = 8
SCALING_STRATA = 8
# (genus, i): every instance takes the exhaustive 2^m scan, whose cost does
# not depend on the drawn lengths; see README.md for the dropped g >= 8 grid.
MULTICUT_GRID = ((6, 2), (6, 3), (6, 4), (6, 5), (7, 2), (7, 3))
VERIFY_RUNS = 2

EXACT = 0.0
BOUND_RTOL = 1e-9
COLLAR_RTOL = 1e-6


@dataclass
class Op:
    """One public call: ``run`` returns its output as JSON-ready data."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Plan:
    workload: str
    setup_import: str
    ops: list
    cli_argv: list
    cli_files: dict
    cli_check: Callable[[str, dict], list]


def _close(got, want, rtol: float) -> bool:
    if got is None or want is None:
        return got is want
    if rtol == EXACT:
        return got == want
    return math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)


def _compare(got: dict, want: dict, tolerances: dict) -> list:
    if "missing" in want:
        return [f"no reference entry {want['missing']}"]
    problems = []
    for field_name, rtol in tolerances.items():
        g, w = got.get(field_name), want.get(field_name)
        if isinstance(w, list) and w and isinstance(w[0], float):
            ok = len(g) == len(w) and all(_close(a, b, rtol) for a, b in zip(g, w))
        elif isinstance(w, float) or w is None:
            ok = _close(g, w, rtol)
        else:
            ok = g == w
        if not ok:
            problems.append(f"{field_name}: got {g!r}, reference {w!r}")
    return problems


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _expected(reference: dict | None, applies: bool, *path: str) -> dict | None:
    """Reference entry an output must match, or None when none applies.

    ``reference`` is None only while the reference file is recorded.
    """
    if reference is None or not applies:
        return None
    node = reference
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
    return node if node is not None else {"missing": "/".join(path)}


# -------------------------------------------------------------------
# report
# -------------------------------------------------------------------

REPORT_TOLERANCES = {
    "cut": EXACT,
    "L1": EXACT,
    "cheeger": BOUND_RTOL,
    "network": BOUND_RTOL,
    "rayleigh": BOUND_RTOL,
    "collar_count": EXACT,
    "collar_values": COLLAR_RTOL,
}


def _distinct(values) -> list:
    out: list = []
    for v in sorted(values):
        if not out or not math.isclose(v, out[-1], rel_tol=1e-9):
            out.append(v)
    return out


def report_summary(blob: dict) -> dict:
    """Checked fields of a ``SpectralReport.to_dict()`` (or ``bounds`` output)."""
    collar = blob["collar_ode_lambda1"]
    return {
        "cut": list(blob["cut"]),
        "L1": blob["L1_restricted"],
        "cheeger": blob["cheeger_lower"],
        "network": blob["network_lambda1"],
        "rayleigh": blob["rayleigh_upper"],
        "collar_count": len(collar),
        "collar_values": _distinct(collar.values()),
    }


def _report_invariants(desc: dict, out: dict) -> list:
    problems = []
    lengths = {e["label"]: e["length"] for e in desc["edges"]}
    volume = 4.0 * math.pi * (desc["genus"] - 1)
    if component_count(desc, out["cut"]) < 2:
        problems.append(f"cut {out['cut']} leaves fewer than 2 components")
    if out["L1"] != math.fsum(lengths[l] for l in sorted(out["cut"])):
        problems.append(f"L1 {out['L1']} is not the length of cut {out['cut']}")
    cheeger = min(0.25, out["L1"] ** 2 / (4.0 * volume**2))
    if not _close(out["cheeger"], cheeger, BOUND_RTOL):
        problems.append(f"cheeger {out['cheeger']} != {cheeger}")
    if not out["cheeger"] <= out["rayleigh"] * (1.0 + BOUND_RTOL):
        problems.append(f"cheeger {out['cheeger']} > rayleigh {out['rayleigh']}")
    if not all(v > 0.25 for v in out["collar_values"]):
        problems.append(f"collar eigenvalue <= 1/4: {out['collar_values']}")
    return problems


def _report_op(key: str, desc: dict, want: dict | None) -> Op:
    def run():
        surface = hypspec.build_from_description(desc)
        return report_summary(hypspec.assemble_report(surface).to_dict())

    def check(out):
        problems = _report_invariants(desc, out)
        if want is not None:
            problems += _compare(out, want, REPORT_TOLERANCES)
        return problems

    return Op(key, run, check)


def chain_description(genus: int) -> dict:
    params = hypspec.ChainFamilyParams(genus=genus, core_length=CHAIN_LENGTH)
    return hypspec.surface_to_dict(hypspec.build_chain_family(params))


def report_plan(seed: int, reference: dict | None) -> Plan:
    rng = _rng("report", seed)
    ops = []
    cli_desc = None
    for g in REPORT_GENERA:
        desc = random_pants_description(rng, g)
        key = f"random-g{g:02d}"
        want = _expected(reference, seed == DEFAULT_SEED, "report", key)
        ops.append(_report_op(key, desc, want))
        if g == REPORT_CLI_GENUS:
            cli_desc, cli_key = desc, key
    for lo, hi in REPORT_CHAIN_STRATA:
        g = rng.randint(lo, hi)
        want = _expected(reference, True, "chain_report", str(g))
        ops.append(_report_op(f"chain-g{g:02d}", chain_description(g), want))

    def cli_check(stdout: str, outputs: dict) -> list:
        return _compare(report_summary(json.loads(stdout)), outputs[cli_key], REPORT_TOLERANCES)

    return Plan(
        workload="report",
        setup_import="import hypspec",
        ops=ops,
        cli_argv=["bounds", "--input", "{surface.json}"],
        cli_files={"surface.json": json.dumps(cli_desc)},
        cli_check=cli_check,
    )


# -------------------------------------------------------------------
# scaling
# -------------------------------------------------------------------

ROW_TOLERANCES = {"L1": EXACT, "cheeger": BOUND_RTOL, "network": BOUND_RTOL, "rayleigh": BOUND_RTOL}
CSV_TOLERANCES = {k: 1e-11 for k in ROW_TOLERANCES}  # CSV keeps 12 digits


def scaling_genus_lists(seed: int) -> list:
    """Stratified sub-lists of the genus range; the first ends at the cap."""
    rng = _rng("scaling", seed)
    lo, hi = SCALING_GENERA
    edges = [lo + round(k * (hi + 1 - lo) / SCALING_STRATA) for k in range(SCALING_STRATA + 1)]
    lists = []
    for _ in range(SCALING_LISTS):
        lists.append([rng.randrange(edges[k], edges[k + 1]) for k in range(SCALING_STRATA)])
    lists[0][-1] = hi
    return lists


def row_summary(row) -> dict:
    return {
        "genus": row.genus,
        "L1": row.l1,
        "cheeger": row.cheeger_lower,
        "network": row.network_lambda1,
        "rayleigh": row.rayleigh_upper,
    }


def _rows_problems(rows: list, genus_list: list, reference: dict | None, tolerances: dict) -> list:
    if [r["genus"] for r in rows] != genus_list:
        return [f"rows for genera {[r['genus'] for r in rows]}, asked {genus_list}"]
    problems = []
    for r in rows:
        want = _expected(reference, True, "scaling_row", str(r["genus"]))
        if want is not None:
            problems += [f"g={r['genus']} {p}" for p in _compare(r, want, tolerances)]
        if not r["cheeger"] <= r["rayleigh"] * (1.0 + BOUND_RTOL):
            problems.append(f"g={r['genus']} cheeger > rayleigh")
    return problems


def scaling_plan(seed: int, reference: dict | None) -> Plan:
    ops = []
    lists = scaling_genus_lists(seed)
    for k, genus_list in enumerate(lists):
        def run(genus_list=genus_list):
            return [row_summary(r) for r in hypspec.scaling_study(genus_list, CHAIN_LENGTH)]

        def check(out, genus_list=genus_list):
            return _rows_problems(out, genus_list, reference, ROW_TOLERANCES)

        ops.append(Op(f"list{k}", run, check))

    def cli_check(stdout: str, outputs: dict) -> list:
        rows = [
            {
                "genus": int(r["genus"]),
                "L1": float(r["L1"]),
                "cheeger": float(r["cheeger_lower"]),
                "network": float(r["network_lambda1"]),
                "rayleigh": float(r["rayleigh_upper"]),
            }
            for r in csv.DictReader(io.StringIO(stdout))
        ]
        return _rows_problems(rows, lists[0], reference, CSV_TOLERANCES)

    return Plan(
        workload="scaling",
        setup_import="import hypspec",
        ops=ops,
        cli_argv=[
            "scaling", "--genus-list", ",".join(map(str, lists[0])),
            "--length", str(CHAIN_LENGTH),
        ],
        cli_files={},
        cli_check=cli_check,
    )


# -------------------------------------------------------------------
# multicut
# -------------------------------------------------------------------

CUT_TOLERANCES = {"labels": EXACT, "length": EXACT, "components": EXACT}


def _cut_invariants(desc: dict, i: int, out: dict) -> list:
    problems = []
    lengths = {e["label"]: e["length"] for e in desc["edges"]}
    count = component_count(desc, out["labels"])
    if count < i + 1:
        problems.append(f"cut {out['labels']} leaves {count} < {i + 1} components")
    if count != out["components"]:
        problems.append(f"reported {out['components']} components, counted {count}")
    if out["length"] != math.fsum(lengths[l] for l in sorted(out["labels"])):
        problems.append(f"length {out['length']} is not the length of {out['labels']}")
    return problems


def multicut_plan(seed: int, reference: dict | None) -> Plan:
    rng = _rng("multicut", seed)
    ops = []
    descs = {}
    for g, i in MULTICUT_GRID:
        desc = random_pants_description(rng, g)
        key = f"g{g}-i{i}"
        descs[key] = desc
        want = _expected(reference, seed == DEFAULT_SEED, "multicut", key)

        def run(desc=desc, i=i):
            cut = hypspec.min_separating_length(hypspec.build_from_description(desc), i)
            return {
                "labels": list(cut.edge_labels),
                "length": cut.total_length,
                "components": cut.component_count,
            }

        def check(out, desc=desc, i=i, want=want):
            problems = _cut_invariants(desc, i, out)
            if want is not None:
                problems += _compare(out, want, CUT_TOLERANCES)
            return problems

        ops.append(Op(key, run, check))
    cli_key = "g6-i2"

    def cli_check(stdout: str, outputs: dict) -> list:
        blob = json.loads(stdout)
        got = {
            "labels": blob["edge_labels"],
            "length": blob["total_length"],
            "components": blob["component_count"],
        }
        return _compare(got, outputs[cli_key], CUT_TOLERANCES)

    return Plan(
        workload="multicut",
        setup_import="import hypspec",
        ops=ops,
        cli_argv=["cuts", "--input", "{surface.json}", "--i", "2"],
        cli_files={"surface.json": json.dumps(descs[cli_key])},
        cli_check=cli_check,
    )


# -------------------------------------------------------------------
# verify
# -------------------------------------------------------------------

def verify_seeds(seed: int) -> list:
    rng = _rng("verify", seed)
    return [rng.randrange(2**31) for _ in range(VERIFY_RUNS)]


def verify_plan(seed: int, reference: dict | None) -> Plan:
    ops = []
    seeds = verify_seeds(seed)
    for k, s in enumerate(seeds):
        key = f"run{k}"
        want = _expected(reference, seed == DEFAULT_SEED, "verify", key)

        def run(s=s):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = hypspec.cli.main(["verify", "--seed", str(s)])
            return {"exit": code, "stdout": buf.getvalue()}

        def check(out, s=s, want=want):
            problems = []
            last = out["stdout"].rstrip("\n").rsplit("\n", 1)[-1]
            if out["exit"] != 0 or last != f"verify: 8/8 checks passed (seed={s})":
                problems.append(f"verify --seed {s}: exit {out['exit']}, {last!r}")
            if want is not None:
                problems += _compare(out, want, {"exit": EXACT, "stdout": EXACT})
            return problems

        ops.append(Op(key, run, check))

    def cli_check(stdout: str, outputs: dict) -> list:
        if stdout != outputs["run0"]["stdout"]:
            return ["CLI verify output differs from the in-process run"]
        return []

    return Plan(
        workload="verify",
        setup_import="import hypspec, hypspec.cli",
        ops=ops,
        cli_argv=["verify", "--seed", str(seeds[0])],
        cli_files={},
        cli_check=cli_check,
    )


PLANS = {
    "report": report_plan,
    "scaling": scaling_plan,
    "multicut": multicut_plan,
    "verify": verify_plan,
}


