"""Printed output, byte for byte, against the transcripts in ``tests/golden/``.

A change that moves output on purpose rewrites them with
``PYTHONPATH=src python tests/regen_golden.py``; see that script.
"""
import difflib
import json

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


# the commands whose stdout is one JSON document
JSON_COMMANDS = ("build", "thickthin", "cuts", "spectrum", "bounds")


def _golden_json_documents():
    """(where, text) for every surface input and every JSON stdout in a transcript."""
    for path in sorted(GOLDEN_DIR.iterdir()):
        if path.suffix == ".json":
            yield path.name, path.read_text()
            continue
        for block in path.read_text().split("\n$ hypspec ")[1:]:
            argv, rest = block.split("\n", 1)
            out = rest.rsplit("[exit ", 1)[0]
            if argv.split()[0] in JSON_COMMANDS and out:
                yield f"{path.name}: hypspec {argv}", out


def _reject(constant: str):
    raise ValueError(f"{constant} is not JSON")


def test_every_golden_json_document_is_strict_json():
    # json.dumps writes Infinity and NaN, which no strict JSON reader accepts
    docs = list(_golden_json_documents())
    assert len(docs) > 70
    for where, text in docs:
        try:
            json.loads(text, parse_constant=_reject)
        except ValueError as exc:
            pytest.fail(f"{where}: {exc}", pytrace=False)
