"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload report --seed 1 --seconds 50 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (see BENCHMARK.json); with ``--trace 1`` they are the
per-layer ones from a traced run.  Lines before it give the environment
and a readable table.  See README.md for what each workload is for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".bench_out"
WORKLOADS = ("report", "scaling", "multicut", "verify")
MIN_CYCLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SUBPROCESS_TIMEOUT_S = 120


def pin_environment() -> None:
    """One BLAS thread and no scaling-study pool, here and in every child."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("HYPSPEC_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


# -------------------------------------------------------------------
# fresh processes: set-up, CLI and import breakdown
# -------------------------------------------------------------------

def timed_process(argv: list) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return perf_counter() - t0, proc


def import_times(stderr: str) -> dict:
    """Cumulative seconds of a few packages from ``python -X importtime`` output."""
    wanted = {"hypspec": "hypspec_s", "scipy.linalg": "scipy_linalg_s", "numpy": "numpy_s"}
    out = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or parts[2].strip() not in wanted:
            continue
        out[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
    return {name: out.get(name, 0.0) for name in wanted.values()}


class Counter:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: " + "; ".join(problems)[:2000], file=sys.stderr)


class FreshProcesses:
    """Samples taken in new interpreters: set-up import, CLI command, import breakdown."""

    def __init__(self, plan, outputs: dict, counter: Counter, tmp: Path):
        self.plan, self.outputs, self.counter = plan, outputs, counter
        paths = {}
        for name, text in plan.cli_files.items():
            paths[name] = tmp / name
            paths[name].write_text(text)
        self.cli_argv = ["-m", "hypspec.cli"] + [
            str(paths[a[1:-1]]) if a.startswith("{") else a for a in plan.cli_argv
        ]

    def setup(self) -> float:
        seconds, proc = timed_process(["-c", self.plan.setup_import])
        self.counter.record([proc.stderr[-500:]] if proc.returncode else [], "setup import")
        return seconds

    def cli(self) -> float:
        seconds, proc = timed_process(self.cli_argv)
        if proc.returncode:
            problems = [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
        else:
            problems = self.plan.cli_check(proc.stdout, self.outputs)
        self.counter.record(problems, "cli " + " ".join(self.plan.cli_argv))
        return seconds

    def import_breakdown(self) -> dict:
        _, proc = timed_process(["-X", "importtime", "-c", self.plan.setup_import])
        self.counter.record([proc.stderr[-500:]] if proc.returncode else [], "setup import")
        return import_times(proc.stderr)


# -------------------------------------------------------------------
# in-process passes
# -------------------------------------------------------------------

def run_pass(plan, outputs: dict, counter: Counter, rec=None):
    """One pass over the plan's ops: (wall s, [(op key, latency s)], ExtrapolationWarnings).

    With ``outputs`` empty this is the warm-up pass: each output is
    checked and kept; later passes must reproduce it exactly.
    """
    latencies = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        for op in plan.ops:
            t0 = perf_counter()
            try:
                if rec is None:
                    out = op.run()
                else:
                    with rec.root(op.key):
                        out = op.run()
            except Exception:
                latencies.append((op.key, perf_counter() - t0))
                problems = [traceback.format_exc(limit=5)]
            else:
                latencies.append((op.key, perf_counter() - t0))
                if op.key not in outputs:
                    problems = op.check(out)
                    outputs[op.key] = out
                elif out != outputs[op.key]:
                    problems = ["output differs from the warm-up pass"]
                else:
                    problems = []
            counter.record(problems, f"{plan.workload}/{op.key}")
        wall = perf_counter() - start
    n_warn = sum(1 for w in caught if w.category.__name__ == "ExtrapolationWarning")
    return wall, latencies, n_warn


def traced_pass(plan, outputs: dict, counter: Counter, layers):
    rec = layers.Recorder()
    patch = layers.Patch(rec)
    patch.install()
    try:
        wall, _, n_warn = run_pass(plan, outputs, counter, rec)
    finally:
        patch.restore()
    return wall, layers.layer_metrics(rec, n_warn), rec


def repeat_for(seconds: float, cycle) -> int:
    """Call ``cycle`` until ``seconds`` are used; one starts only if it should fit."""
    durations = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        cycle()
        durations.append(perf_counter() - t0)
        if len(durations) >= MIN_CYCLES and perf_counter() + statistics.median(durations) > deadline:
            return len(durations)


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -------------------------------------------------------------------
# the two kinds of run
# -------------------------------------------------------------------

def end_to_end(plan, outputs, counter, seconds, fresh) -> tuple[dict, dict]:
    """Cycles of one warm pass, one set-up sample and one CLI sample.

    Interleaving spreads every kind of sample over the whole run, so a
    slow spell of the machine weighs on all metrics alike.
    """
    walls, latencies, setups, clis = [], [], [], []
    fresh.setup()  # writes bytecode; not kept
    fresh.cli()

    def cycle():
        wall, lats, _ = run_pass(plan, outputs, counter)
        walls.append(wall)
        latencies.extend(lats)
        setups.append(fresh.setup())
        clis.append(fresh.cli())

    cycles = repeat_for(seconds, cycle)
    lat = [x for _, x in latencies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cli_s": (statistics.median(clis), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    slowest = max(latencies, key=lambda kv: kv[1])
    info = {
        "cycles": cycles,
        "op_samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > percentile(lat, 90)),
        "slowest_op": {"key": slowest[0], "ms": 1e3 * slowest[1]},
        "samples": {"wall": walls, "setup": setups, "cli": clis, "ops": latencies},
    }
    return metrics, info


def traced(plan, outputs, counter, seconds, fresh, spans_path) -> tuple[dict, dict]:
    """Cycles of one plain pass, one traced pass and one ``-X importtime`` sample."""
    import layers

    plain, traced_walls, per_layer, recorders, imports = [], [], [], [], []

    def cycle():
        plain.append(run_pass(plan, outputs, counter)[0])
        wall, values, rec = traced_pass(plan, outputs, counter, layers)
        traced_walls.append(wall)
        per_layer.append(values)
        recorders.append(rec)
        imports.append(fresh.import_breakdown())

    cycles = repeat_for(seconds, cycle)
    metrics = {
        name: (statistics.median(p[name][0] for p in per_layer), unit)
        for name, (_, unit) in per_layer[0].items()
    }
    for name in imports[0]:
        metrics[f"setup.import.{name}"] = (statistics.median(i[name] for i in imports), "s")
    overhead = statistics.median(t - p for t, p in zip(traced_walls, plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    layers.write_spans(recorders[0], spans_path)
    info = {"cycles": cycles, "spans": str(spans_path.relative_to(ROOT)),
            "samples": {"plain": plain, "traced": traced_walls}}
    return metrics, info


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypspec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hypspec'}", file=sys.stderr)
        return 2
    for path in (REFERENCE, SPEC):
        if not path.is_file():
            print(f"error: missing {path}", file=sys.stderr)
            return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import hypspec

    if not Path(hypspec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported hypspec from {hypspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    reference = json.loads(REFERENCE.read_text())
    plan = workloads.PLANS[args.workload](args.seed, reference)
    counter = Counter()
    outputs: dict = {}
    run_pass(plan, outputs, counter)  # warm-up: checks every output
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        fresh = FreshProcesses(plan, outputs, counter, Path(tmp))
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, info = traced(plan, outputs, counter, args.seconds, fresh, spans)
        else:
            metrics, info = end_to_end(plan, outputs, counter, args.seconds, fresh)
    info["failed_frac"] = counter.failed / counter.attempted

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>9} {name:<48} {value:>14.6g} {unit}")
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    reported = {}
    for entry in spec:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        reported[entry["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
