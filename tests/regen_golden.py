"""Rewrite the golden CLI transcripts under ``tests/golden/``.

Each transcript holds, for a list of ``hypspec`` command lines, the
exact stdout and the exit code of each one, run in-process from the
repository root.  ``tests/test_golden.py`` reruns them and compares the
bytes.  A change that moves printed output on purpose reruns this
script by hand and commits the diff of ``tests/golden/`` as its
evidence:

    PYTHONPATH=src python tests/regen_golden.py

The random surfaces are drawn by ``tests/random_pants.py`` from fixed
seeds and stored beside the transcripts as surface JSON, so every
command line can be retyped in a shell.  The first line of each
transcript names the Python, numpy and BLAS it was recorded under:
``eigvalsh`` may round differently under another BLAS build.
"""
from __future__ import annotations

import contextlib
import io
import os
import platform
import random
import sys
from pathlib import Path

from random_pants import continuous_length, random_pants_surface, tie_length

from hypspec.cli import main
from hypspec.surfaces import (
    ChainFamilyParams,
    PantsSurface,
    build_chain_family,
    build_from_description,
    dump_surface,
    surface_to_dict,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_REL = "tests/golden"
GOLDEN_DIR = ROOT / GOLDEN_REL
FORCED = ("--epsilon", "0.2", "--force-epsilon")


def short_length(rng: random.Random) -> float:
    return rng.choice((0.02, 0.05, 0.09))


def mixed_length(rng: random.Random) -> float:
    return rng.choice((0.02, 0.05, 0.09, 0.6, 1.5))


def long_chain() -> PantsSurface:
    """A genus-3 chain whose curves all have length 2000, past the sinh overflow."""
    desc = surface_to_dict(build_chain_family(ChainFamilyParams(genus=3, core_length=0.09)))
    for e in desc["edges"]:
        e["length"] = 2000.0
    return build_from_description(desc)


# name -> surface, for the surfaces read with --input
INPUTS = {
    "random-g3-s1-continuous": lambda: random_pants_surface(random.Random(1), 3, continuous_length),
    "random-g4-s2-ties": lambda: random_pants_surface(random.Random(2), 4, tie_length),
    # one bridge (c003), but the i = 1 optimum is the two-curve cut c005 + c006
    "random-g4-s1-bridged": lambda: random_pants_surface(random.Random(1), 4, continuous_length),
    "random-g5-s3-mixed": lambda: random_pants_surface(random.Random(3), 5, mixed_length),
    "random-g6-s4-short": lambda: random_pants_surface(random.Random(4), 6, short_length),
    "long-g3-2000": long_chain,
}


def _surface_commands(genus: int, *source: str) -> list[tuple[str, ...]]:
    """Every per-surface command of the golden set, on one genus-g surface.

    The cut search runs at i = 1, at i = 2 and at its deepest, i = 2g-3.
    """
    out = [("geometry", *source)]
    for cmd in ("thickthin", "spectrum", "bounds"):
        out += [(cmd, *source), (cmd, *source, *FORCED)]
    out += [("cuts", *source, "--i", str(i)) for i in sorted({1, 2, 2 * genus - 3})]
    return out


def _chain(genus: int, length: float) -> tuple[str, ...]:
    return ("--family", "chain", "--genus", str(genus), "--length", str(length))


def _input(name: str) -> tuple[str, ...]:
    return ("--input", f"{GOLDEN_REL}/{name}.json")


# transcript name -> command lines
TRANSCRIPTS = {
    "chain-g2-0.09": _surface_commands(2, *_chain(2, 0.09)),
    "chain-g5-0.09": _surface_commands(5, *_chain(5, 0.09)),
    "chain-g4-0.5": _surface_commands(4, *_chain(4, 0.5)),
    "chain-g6-0.02": _surface_commands(6, *_chain(6, 0.02)),
    **{
        name: _surface_commands(draw().genus, *_input(name))
        for name, draw in INPUTS.items()
        if name.startswith("random")
    },
    "long-g3-2000": [
        ("geometry", *_input("long-g3-2000")),
        ("bounds", *_input("long-g3-2000")),
        ("thickthin", *_chain(3, 0.09), "--epsilon", "800"),
    ],
    "scaling": [("scaling", "--genus-list", "4,8,16,32,64,128,256", "--length", "0.09")],
    "verify": [("verify", "--seed", str(seed)) for seed in (*range(21), 42)],
}


def environment() -> str:
    """The header line: the Python, numpy and BLAS that produce the bytes."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}\n"
    )


def run_command(argv: tuple[str, ...]) -> str:
    """One transcript block: the command line, its stdout and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    tail = f"[exit {code}]" + (f" {err.getvalue()}" if code else "\n")
    return f"$ hypspec {' '.join(argv)}\n{out.getvalue()}{tail}"


def transcript(name: str) -> str:
    """The body of transcript ``name``; run from the repository root."""
    return "".join(run_command(argv) for argv in TRANSCRIPTS[name])


def regenerate() -> None:
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, draw in INPUTS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(dump_surface(draw()))
    header = environment()
    for name in TRANSCRIPTS:
        (GOLDEN_DIR / f"{name}.txt").write_text(header + transcript(name))
    print(f"wrote {len(TRANSCRIPTS)} transcripts to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
