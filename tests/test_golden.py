"""Replay every verb on every figure, as text and as --json, against the
recorded exit codes and output bytes in ``golden/figures.json``.

Regenerate the file (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from wfg.cli import main

from helpers import FIGURES, VERBS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.json"


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def all_runs():
    figures = sorted(p.name for p in FIGURES.glob("*.json"))
    return [
        [verb, f"figures/{name}"] + (["--json"] if as_json else [])
        for name in figures for verb in VERBS for as_json in (False, True)
    ]


# A missing file records nothing, which test_golden_covers_every_run reports.
RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_every_run():
    assert [r["argv"] for r in RECORDED] == all_runs()


@pytest.mark.parametrize("record", RECORDED, ids=lambda r: " ".join(r["argv"]))
def test_output_matches_golden(record, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert capture(record["argv"]) == record


if __name__ == "__main__":
    os.chdir(ROOT)
    runs = [capture(argv) for argv in all_runs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
