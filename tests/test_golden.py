"""Printed output, byte for byte, against the transcripts in ``tests/golden/``.

A change that moves output on purpose rewrites them with
``PYTHONPATH=src python tests/regen_golden.py``; see that script.
"""
import difflib

import pytest

from regen_golden import GOLDEN_DIR, INPUTS, ROOT, TRANSCRIPTS, environment, transcript


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_cli_output_matches_its_golden_transcript(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    header, recorded = (GOLDEN_DIR / f"{name}.txt").read_bytes().decode().split("\n", 1)
    got = transcript(name)
    if got == recorded:
        return
    diff = difflib.unified_diff(
        recorded.splitlines(True), got.splitlines(True), "golden", "now", n=4
    )
    pytest.fail(
        f"{name}: output differs from its golden transcript\n"
        f"recorded under: {header[2:]}\n"
        f"running under:  {environment()[2:]}" + "".join(list(diff)[:80]),
        pytrace=False,
    )


def test_golden_directory_holds_exactly_the_listed_files():
    expected = {f"{n}.txt" for n in TRANSCRIPTS} | {f"{n}.json" for n in INPUTS}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected
