"""The scripts under ``scripts/`` run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

from hypspec.cli import main

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


def test_scaling_study_script_writes_the_cli_csv(tmp_path):
    args = ["--genus-list", "4,8", "--length", "0.09"]
    script_csv, cli_csv = tmp_path / "script.csv", tmp_path / "cli.csv"
    run_script("scaling_study.py", *args, "--output", str(script_csv))
    assert main(["scaling", *args, "--output", str(cli_csv)]) == 0
    assert script_csv.read_bytes() == cli_csv.read_bytes()


def test_collar_limit_sweep_stays_above_the_floor():
    out = run_script("collar_limit_sweep.py", "--widths", "1,2").stdout
    header, *rows = out.splitlines()
    assert header == "half_width,lambda1,floor,excess_over_quarter"
    assert [float(row.split(",")[0]) for row in rows] == [1.0, 2.0]
    for row in rows:
        _, lam, floor, _ = (float(x) for x in row.split(","))
        assert lam >= floor
