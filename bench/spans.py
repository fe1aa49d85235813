"""Span wrappers installed around public ``wfg`` functions for a traced run.

A wrapper goes into every ``wfg`` module namespace that holds the function
(for example both ``wfg.cli.classify`` and ``wfg.analysis.classify``), so
calls are caught whichever module makes them. Each span records its name,
start, end, parent span and whether it raised. Spans stay in memory until
``dump`` writes them out; ``summarize`` derives self time and call counts.

Counters are taken at the same boundaries: matrix shape, nonzeros, unit
entries and largest diagonal entry where a matrix enters the exact layer,
presentation sizes, and the number of Hamiltonian trees. The clock used for
spans excludes the time spent computing counters, so self times measure
the program only.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

LAYERS = {
    "cli": ("main", "build_parser", "parse_input"),
    "complexes": ("complex_from_json", "validate", "compute_maximal_tree",
                  "WeightedComplex.with_tree"),
    "presentation": ("present", "abelianized_relation_matrix", "abelianized_group"),
    "exact": ("abelian_group_from_matrix", "smith_normal_form"),
    "invariants": ("classify", "satisfies_exactly_two", "abelianization",
                   "weighted_homology_graph", "lcs_free_ranks"),
    "vankampen": ("cover_from_json", "check_hypotheses", "amalgamated_presentation",
                  "verify_van_kampen"),
    "analysis": ("filtration_from_json", "analyze_filtration",
                 "enumerate_hamiltonian_trees", "discriminate_trees"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
COUNTERS = ("presentation.generators", "presentation.relators", "exact.snf.cells",
            "exact.snf.nonzeros", "exact.snf.units", "exact.snf.max_diag_bits",
            "analysis.hamiltonian_trees")


class Tracer:
    """Records spans and counters; entering it installs the wrappers and
    leaving it restores the original functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name index, start, end, parent index, raised]
        self.counts = Counter({name: 0 for name in COUNTERS})
        self._stack: list[int] = []
        self._exact_depth = 0
        self._hook_ns = 0
        self._patches = []
        for index, name in enumerate(SPAN_NAMES):
            self._plan(index, name)

    def _clock(self) -> int:
        return time.perf_counter_ns() - self._hook_ns

    def _plan(self, index: int, name: str):
        module_name, _, attr = name.partition(".")
        owner = importlib.import_module(f"wfg.{module_name}")
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
            targets = [owner]
        else:
            targets = [m for key, m in sys.modules.items()
                       if key == "wfg" or key.startswith("wfg.")]
        original = getattr(owner, attr)
        wrapper = self._wrap(index, original, module_name == "exact")
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, original, wrapper))

    def _wrap(self, index: int, fn, exact: bool):
        hook = _HOOKS.get(SPAN_NAMES[index])

        def span(*args, **kwargs):
            if hook is not None and not (exact and self._exact_depth):
                t = time.perf_counter_ns()
                after = hook(self.counts, *args)
                self._hook_ns += time.perf_counter_ns() - t
            else:
                after = None
            record = [index, self._clock(), 0, self._stack[-1] if self._stack else -1, False]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            self._exact_depth += exact
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = self._clock()
                self._stack.pop()
                self._exact_depth -= exact
            if after is not None:
                t = time.perf_counter_ns()
                after(result)
                self._hook_ns += time.perf_counter_ns() - t
            return result

        return span

    def __enter__(self):
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc):
        for target, key, original, _ in self._patches:
            setattr(target, key, original)
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": SPAN_NAMES, "spans": self.spans,
                       "counts": self.counts}, fh)


def _matrix_hook(counts, matrix, *_):
    """Counts for a matrix entering the exact layer from outside it."""
    entries = matrix.entries
    counts["exact.snf.cells"] += matrix.rows * matrix.cols
    counts["exact.snf.nonzeros"] += sum(1 for x in entries if x)
    counts["exact.snf.units"] += sum(1 for x in entries if x in (1, -1))

    def after(result):
        diag = result.torsion if hasattr(result, "torsion") else result.diagonal()
        bits = max((abs(d).bit_length() for d in diag), default=0)
        counts["exact.snf.max_diag_bits"] = max(counts["exact.snf.max_diag_bits"], bits)

    return after


def _present_hook(counts, *_):
    def after(result):
        counts["presentation.generators"] += len(result.generators)
        counts["presentation.relators"] += len(result.relators)

    return after


def _hamiltonian_hook(counts, *_):
    def after(result):
        counts["analysis.hamiltonian_trees"] += len(result)

    return after


_HOOKS = {
    "exact.abelian_group_from_matrix": _matrix_hook,
    "exact.smith_normal_form": _matrix_hook,
    "presentation.present": _present_hook,
    "analysis.enumerate_hamiltonian_trees": _hamiltonian_hook,
}


def summarize(path) -> dict:
    """Self time (ms), calls and errors per span name, self time per layer,
    and the counters, from a file written by ``Tracer.dump``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, calls, errors = Counter(), Counter(), Counter()
    for i, (index, start, end, _, raised) in enumerate(spans):
        self_ns[index] += end - start - child_ns[i]
        calls[index] += 1
        errors[index] += raised
    out = {}
    layers = Counter()
    for index, name in enumerate(names):
        out[f"{name}.self_ms"] = self_ns[index] / 1e6
        out[f"{name}.calls"] = calls[index]
        out[f"{name}.errors"] = errors[index]
        layers[name.split(".")[0]] += self_ns[index] / 1e6
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = layers[layer]
    counts = data["counts"]
    for name in COUNTERS:
        if name != "exact.snf.units":
            out[name] = counts[name]
    nonzeros = counts["exact.snf.nonzeros"]
    out["exact.snf.unit_frac"] = counts["exact.snf.units"] / nonzeros if nonzeros else 0.0
    return out
