"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: every op's output at the default seed,
plus the chain-family report for every genus the ``report`` workload
can draw and the scaling row for every genus the ``scaling`` workload
can draw, so those two are checked on every seed.  Run it only when an
output change is intended, and say why in the change that commits it.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, pin_environment

pin_environment()
sys.path.insert(0, str(SRC))

import hypspec  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ref: dict = {"default_seed": workloads.DEFAULT_SEED}
    for name in ("report", "multicut", "verify"):
        plan = workloads.PLANS[name](workloads.DEFAULT_SEED, None)
        ref[name] = {op.key: op.run() for op in plan.ops if not op.key.startswith("chain")}
    lo = workloads.REPORT_CHAIN_STRATA[0][0]
    hi = workloads.REPORT_CHAIN_STRATA[-1][1]
    ref["chain_report"] = {}
    for g in range(lo, hi + 1):
        surface = hypspec.build_from_description(workloads.chain_description(g))
        blob = hypspec.assemble_report(surface).to_dict()
        ref["chain_report"][str(g)] = workloads.report_summary(blob)
    lo, hi = workloads.SCALING_GENERA
    rows = hypspec.scaling_study(list(range(lo, hi + 1)), workloads.CHAIN_LENGTH)
    ref["scaling_row"] = {str(r.genus): workloads.row_summary(r) for r in rows}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
