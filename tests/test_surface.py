"""The public surface: every function the benchmark's traced run wraps
still resolves, and the names that no verb runs are gone from ``wfg``.

``bench/spans.py`` names each wrapped function as ``module.function`` or
``module.Class.method`` in ``SPAN_NAMES``; a traced benchmark run fails
on a name that no longer resolves, so this test fails first."""

import importlib
import importlib.util
from pathlib import Path

import wfg

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Old home of each public name that moved to tests/helpers.py or was deleted.
REMOVED = {
    "pentagon_ring": "analysis",
    "hexagon_ring": "analysis",
    "relabel": "complexes",
    "realize": "invariants",
    "is_spanning_tree": "complexes",
    "BadPermutation": "errors",
}


def span_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPAN_NAMES


def resolve(name):
    module_name, _, path = name.partition(".")
    owner = importlib.import_module(f"wfg.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_wrapped_names_resolve_and_removed_names_are_gone():
    names = span_names()
    assert len(names) == 25
    assert [n for n in names if not callable(resolve(n))] == []
    for name, module_name in REMOVED.items():
        assert not hasattr(wfg, name)
        assert not hasattr(importlib.import_module(f"wfg.{module_name}"), name)
