"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/repeat.py --seeds 1-10 [--workloads report,verify] [--trace 0]
                            [--out bench/results/NAME.json]

Each run is ``bench/run.py`` in its own process, one after another.
For every workload and metric it prints the median over the runs, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and, for end-to-end metrics,
that spread against the metric's bound in BENCHMARK.json.  A run that
fails or reports ``correct: false`` is listed and makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict | None, list]:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None, lines
    return json.loads(lines[-1]), lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run and the summary as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    record = {"seeds": seeds, "trace": args.trace, "runs": {}, "summary": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, lines = run_once(workload, seed, args.trace)
            if result is None or not result["correct"]:
                ok = False
            if result is not None:
                results.append(result)
                env = json.loads(lines[0]) if lines[0].startswith("{") else {}
                # per-op latencies would dominate the record; their percentiles are kept
                env.get("samples", {}).pop("ops", None)
                record["runs"].setdefault(workload, []).append({"seed": seed, "info": env, **result})
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        if len(results) < 2:
            continue
        summary = record["summary"][workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            row = {"median": statistics.median(values), "unit": unit, "spread": spread(values)}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                row["bound"] = bound
                flag = "ok" if row["spread"] < bound / 3 else "WIDE" if row["spread"] < bound else "OVER"
            summary[name] = row
            print(f"  {workload:>9} {name:<44} {row['median']:>12.6g} {unit:<6} "
                  f"spread {row['spread']:.3f} {'' if bound is None else f'bound {bound} {flag}'}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
