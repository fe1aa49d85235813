"""Replay every verb on every figure, as text and as --json, against the
recorded exit codes and output bytes in ``golden/figures.json``; the flag
variants those runs leave out (``--tree`` strategies, ``lcs`` bounds,
``filtration --fallback-abelian``) on every figure, against
``golden/flags.json``; ``hamiltonian`` on two larger seeded graphs (a
K7 and a sparse 10-vertex graph), whose documents, exit codes and output
digests are recorded in ``golden/hamiltonian.json``; and ``vankampen`` on
36 seeded covers, valid and broken, whose documents, exit codes and output
are recorded in ``golden/vankampen.json``.

Regenerate all four files (only when an output change is intended) with
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
from wfg.complexes import complex_to_json

from helpers import BROKEN_COVERS, FIGURES, VERBS, random_cover, split_grid_cover

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.json"
HAMILTONIAN = GOLDEN.with_name("hamiltonian.json")
VANKAMPEN = GOLDEN.with_name("vankampen.json")
FLAGS = GOLDEN.with_name("flags.json")

# The verb and flags of each run in flags.json, run as text and with --json.
FLAG_VARIANTS = (
    [[verb, "--tree", strategy]
     for verb in ("tree", "present", "classify", "abelianize", "lcs")
     for strategy in ("bfs", "kruskal-min", "kruskal-max")]
    + [["lcs", "--max-n", "8"],
       ["lcs", "--max-n", "20"],
       ["filtration", "--fallback-abelian"]]
)


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def figure_runs(variants):
    figures = sorted(p.name for p in FIGURES.glob("*.json"))
    return [
        [verb, f"figures/{name}", *flags] + (["--json"] if as_json else [])
        for name in figures for verb, *flags in variants for as_json in (False, True)
    ]


def all_runs():
    return figure_runs([[verb] for verb in VERBS])


def flag_runs():
    return figure_runs(FLAG_VARIANTS)


def recorded(path):
    # A missing file records nothing, which the coverage tests report.
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


RECORDED = recorded(GOLDEN)
FLAG_RECORDED = recorded(FLAGS)


def test_golden_covers_every_run():
    assert [r["argv"] for r in RECORDED] == all_runs()


def test_flag_golden_covers_every_run():
    assert [r["argv"] for r in FLAG_RECORDED] == flag_runs()


@pytest.mark.parametrize("record", RECORDED + FLAG_RECORDED, ids=lambda r: " ".join(r["argv"]))
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


def vankampen_documents() -> dict:
    """Two random covers and the split 2x2 and 4x4 grids, each as it is
    and in every broken variant."""
    rng = random.Random(10)
    bases = {"random0": random_cover(rng), "random1": random_cover(rng),
             "grid2": split_grid_cover(rng, 2), "grid4": split_grid_cover(rng, 4)}
    covers = {}
    for name, spec in bases.items():
        covers[name] = spec
        for kind, broken in BROKEN_COVERS.items():
            covers[f"{name}-{kind}"] = broken(spec)
    return {name: {key: complex_to_json(getattr(spec, key)) for key in ("L", "K1", "K2", "K0")}
            for name, spec in covers.items()}


def vankampen_run(name: str, document: dict, flags: list, directory: Path) -> dict:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    run = capture(["vankampen", str(path), *flags])
    return {"name": name, "flags": flags, "exit": run["exit"],
            "stdout": run["stdout"], "stderr": run["stderr"]}


COVERS = json.loads(VANKAMPEN.read_text(encoding="utf-8")) if VANKAMPEN.exists() else {}


def test_vankampen_pins_cover_every_document():
    assert COVERS.get("documents") == vankampen_documents()
    assert [(r["name"], r["flags"]) for r in COVERS["runs"]] == [
        (name, flags) for name in COVERS["documents"] for flags in ([], ["--json"])]


@pytest.mark.parametrize("record", COVERS.get("runs", []),
                         ids=lambda r: " ".join([r["name"], *r["flags"]]))
def test_vankampen_matches_pinned(record, tmp_path):
    document = COVERS["documents"][record["name"]]
    assert vankampen_run(record["name"], document, record["flags"], tmp_path) == record


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, argvs in ((GOLDEN, all_runs()), (FLAGS, flag_runs())):
        runs = [capture(argv) for argv in argvs]
        path.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {len(runs)} runs to {path}", file=sys.stderr)
    documents = hamiltonian_documents()
    with tempfile.TemporaryDirectory() as directory:
        pinned = [hamiltonian_run(name, doc, flags, Path(directory))
                  for name, doc in documents.items() for flags in ([], ["--json"])]
    HAMILTONIAN.write_text(json.dumps({"documents": documents, "runs": pinned}, indent=1)
                           + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} runs to {HAMILTONIAN}", file=sys.stderr)
    documents = vankampen_documents()
    with tempfile.TemporaryDirectory() as directory:
        pinned = [vankampen_run(name, doc, flags, Path(directory))
                  for name, doc in documents.items() for flags in ([], ["--json"])]
    VANKAMPEN.write_text(json.dumps({"documents": documents, "runs": pinned}, indent=1,
                                    ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} runs to {VANKAMPEN}", file=sys.stderr)
