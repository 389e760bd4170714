"""The scripts under ``scripts/`` run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def test_collar_limit_sweep_stays_above_the_floor():
    # the default widths, out to w = 100 and its 512 x 512 solve
    out = run_script("collar_limit_sweep.py").stdout
    header, *rows = out.splitlines()
    assert header == "half_width,lambda1,floor,excess_over_quarter"
    assert [float(row.split(",")[0]) for row in rows] == [1, 2, 4, 8, 12, 24, 50, 100]
    for row in rows:
        _, lam, floor, _ = (float(x) for x in row.split(","))
        assert lam >= floor
