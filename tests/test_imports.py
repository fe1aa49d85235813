"""What a ``wfg`` process loads, read from ``sys.modules`` in a fresh
interpreter rather than timed: each verb imports only the modules it
runs, and no run loads ``dataclasses``, ``inspect``, ``typing`` or
``pathlib``.  Also the lazy package surface: ``wfg.<name>`` looks each
export up in its module on every access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wfg
from wfg import invariants

from helpers import FIGURES, VERBS

SRC = Path(__file__).resolve().parent.parent / "src"

# The export list of the package, module by module.
EXPORTS = {
    "analysis": ["BirthDeathEvent", "Filtration", "FiltrationAnalysis",
                 "TreeDiscriminationReport", "analyze_filtration", "discriminate_trees",
                 "enumerate_hamiltonian_trees", "filtration_from_json"],
    "complexes": ["ValidationReport", "WeightedComplex", "complex_from_json",
                  "complex_to_json", "compute_maximal_tree", "is_weighted_subcomplex",
                  "validate"],
    "exact": ["AbelianGroup", "IntegerMatrix", "SnfResult", "abelian_group_from_matrix",
              "smith_normal_form"],
    "invariants": ["CyclicFactorization", "WeightedHomology", "abelianization", "classify",
                   "lcs_free_ranks", "normalize_factorization", "satisfies_exactly_two",
                   "weighted_homology_graph", "witt_rank"],
    "presentation": ["Presentation", "abelianized_group", "abelianized_relation_matrix",
                     "free_reduce", "present", "presentation_to_json"],
    "vankampen": ["CoverSpec", "VanKampenReport", "amalgamated_presentation",
                  "check_hypotheses", "cover_from_json", "verify_van_kampen"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# One document per verb that the verb accepts.
DOCUMENTS = {
    "validate": "figure1.json", "tree": "figure6-pentagon.json",
    "present": "figure2.json", "classify": "figure1.json", "abelianize": "figure3.json",
    "homology": "figure6-hexagon.json", "lcs": "figure1-w0-2.json",
    "vankampen": "figure4-cover.json", "filtration": "figure5-filtration.json",
    "hamiltonian": "figure6-hexagon.json",
}
NEVER = {"dataclasses", "inspect", "typing", "pathlib"}
COMPLEX_VERBS = ("validate", "tree", "present", "classify", "abelianize", "homology", "lcs")

RUN_VERB = """\
import sys
from wfg.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules), file=sys.stderr)
"""


def fresh_modules(script, *args):
    """The last stderr line of ``python -S -c script args``, split."""
    proc = subprocess.run([sys.executable, "-S", "-c", script, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    return proc.stderr.splitlines()[-1].split()


@pytest.mark.parametrize("verb", VERBS)
def test_verb_imports(verb):
    code, *modules = fresh_modules(RUN_VERB, verb, str(FIGURES / DOCUMENTS[verb]), "--json")
    assert code == "0"
    loaded = set(modules)
    assert "wfg.cli" in loaded
    assert loaded & NEVER == set()
    if verb in COMPLEX_VERBS:
        assert loaded & {"wfg.vankampen", "wfg.analysis"} == set()
    if verb in ("validate", "tree"):
        assert loaded & {"wfg.exact", "wfg.invariants"} == set()
    if verb in ("present", "lcs"):
        assert "wfg.exact" not in loaded
    if verb == "classify":
        assert loaded & {"wfg.exact", "wfg.presentation"} == set()
    if verb == "hamiltonian":
        assert loaded & {"wfg.invariants", "wfg.exact", "wfg.presentation"} == set()


def test_import_wfg_loads_only_errors():
    modules = fresh_modules("import sys, wfg; print(*sorted(sys.modules), file=sys.stderr)")
    assert [m for m in modules if m.startswith("wfg")] == ["wfg", "wfg.errors"]
    assert set(modules) & NEVER == set()


def test_export_list():
    assert wfg.__all__ == ["errors", *(name for _, name in NAMES)]
    assert set(dir(wfg)) >= set(wfg.__all__) | {"__version__"}


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_module(module, name):
    assert getattr(wfg, name) is getattr(importlib.import_module(f"wfg.{module}"), name)


def test_star_import():
    namespace = {}
    exec("from wfg import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(wfg.__all__)
    assert namespace["errors"] is wfg.errors


def test_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        wfg.no_such_name
    with pytest.raises(ImportError):
        exec("from wfg import no_such_name", {})


def test_resolved_value_is_not_kept(monkeypatch):
    original = wfg.classify
    assert "classify" not in vars(wfg)
    monkeypatch.setattr(invariants, "classify", len)
    assert wfg.classify is len
    monkeypatch.undo()
    assert wfg.classify is original
