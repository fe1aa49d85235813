"""Replay every verb on every figure, as text and as --json, against the
recorded exit codes and output bytes in ``golden/figures.json``; and
``hamiltonian`` on two larger seeded graphs (a K7 and a sparse 10-vertex
graph), whose documents, exit codes and output digests are recorded in
``golden/hamiltonian.json``.

Regenerate both files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from wfg.cli import main

from helpers import FIGURES, VERBS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.json"
HAMILTONIAN = GOLDEN.with_name("hamiltonian.json")


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


def hamiltonian_documents() -> dict:
    """A K7 with distinct weights in [-30, 30] (0 and +-1 among them) and a
    10-vertex ring with four chords and weights in [-4, 4], so that some
    trees share an invariant."""
    rng = random.Random(7)
    k7 = list(itertools.combinations(range(7), 2))
    weights = rng.sample(range(-30, 31), len(k7))
    weights[:3] = [0, 1, -1]
    rng.shuffle(weights)
    ring = {(i, i + 1) for i in range(9)} | {(0, 9), (0, 5), (2, 7), (3, 8), (1, 4)}
    return {
        "k7": {"vertices": [f"v{i}" for i in range(7)],
               "edges": [{"a": a, "b": b, "w": w} for (a, b), w in zip(k7, weights)]},
        "sparse10": {"vertices": [f"u{i}" for i in range(10)],
                     "edges": [{"a": a, "b": b, "w": rng.randint(-4, 4)}
                               for a, b in sorted(ring)]},
    }


def hamiltonian_run(name: str, document: dict, flags: list, directory: Path) -> dict:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    run = capture(["hamiltonian", str(path), *flags])
    stdout = run["stdout"].encode("utf-8")
    return {"name": name, "flags": flags, "exit": run["exit"],
            "stdout_bytes": len(stdout), "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_head": run["stdout"][:200], "stderr": run["stderr"]}


PINNED = json.loads(HAMILTONIAN.read_text(encoding="utf-8")) if HAMILTONIAN.exists() else {}


def test_hamiltonian_pins_cover_both_graphs():
    assert sorted(PINNED.get("documents", {})) == ["k7", "sparse10"]
    assert len(PINNED["runs"]) == 4


@pytest.mark.parametrize("record", PINNED.get("runs", []),
                         ids=lambda r: " ".join([r["name"], *r["flags"]]))
def test_hamiltonian_matches_pinned(record, tmp_path):
    document = PINNED["documents"][record["name"]]
    assert hamiltonian_run(record["name"], document, record["flags"], tmp_path) == record


if __name__ == "__main__":
    os.chdir(ROOT)
    runs = [capture(argv) for argv in all_runs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
    documents = hamiltonian_documents()
    with tempfile.TemporaryDirectory() as directory:
        pinned = [hamiltonian_run(name, doc, flags, Path(directory))
                  for name, doc in documents.items() for flags in ([], ["--json"])]
    HAMILTONIAN.write_text(json.dumps({"documents": documents, "runs": pinned}, indent=1)
                           + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} runs to {HAMILTONIAN}", file=sys.stderr)
