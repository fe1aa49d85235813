"""Command line front end.

Exit codes: 0 success, 1 malformed input or failed validation, 2 violated
mathematical precondition (for example the exactly-two condition).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import (
    Filtration,
    analyze_filtration,
    discriminate_trees,
    enumerate_hamiltonian_trees,
    filtration_from_json,
)
from .complexes import (
    WeightedComplex,
    complex_from_json,
    compute_maximal_tree,
    ensure_tree,
    validate,
)
from .errors import InputError, ParseError, SchemaError, TooLarge, WfgError
from .exact import AbelianGroup
from .invariants import (
    abelianization,
    classify,
    lcs_free_ranks,
    weighted_homology_graph,
)
from .presentation import present, presentation_to_json
from .vankampen import CoverSpec, cover_from_json, verify_van_kampen

COMPLEX_VERBS = ("validate", "tree", "present", "classify", "abelianize",
                 "homology", "lcs", "hamiltonian")

# Python converts no integer of more than this many decimal digits to text.
RANK_DIGIT_LIMIT = 4300
_DIGIT_BOUND = 10 ** RANK_DIGIT_LIMIT  # the least integer past the limit
# Largest --max-n for any factorization.  Since 2^(10k/3) > 10^k, every
# larger max_n already fails the digit bound when m >= 2.
MAX_N_LIMIT = RANK_DIGIT_LIMIT * 10 // 3


def parse_input(path: str):
    """Load a complex, cover, or filtration document, detected by shape."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        # JSONDecodeError is a ValueError, as are integer literals past
        # Python's digit limit; deep nesting exhausts the recursion limit.
        raise ParseError(f"{path}: not valid JSON: {err}") from err
    if isinstance(doc, dict) and "stages" in doc:
        return filtration_from_json(doc)
    if isinstance(doc, dict) and ("L" in doc or "K1" in doc):
        return cover_from_json(doc)
    return complex_from_json(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfg",
        description="Weighted fundamental groups of weighted simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, help_text, tree_flag=False):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("input", help="path to a JSON input document")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a machine-readable JSON report")
        if tree_flag:
            p.add_argument("--tree", choices=("bfs", "kruskal-min", "kruskal-max"),
                           default=None,
                           help="build the tree with this strategy, ignoring "
                                "(and not validating) the document's tree; "
                                "default: use the document's tree, else bfs")
        return p

    add("validate", "check the structural invariants of a complex")
    add("tree", "compute a maximal tree", tree_flag=True)
    add("present", "print the presentation of the weighted fundamental group",
        tree_flag=True)
    add("classify", "free product of cyclic groups (exactly-two condition)",
        tree_flag=True)
    add("abelianize", "abelianization of the weighted fundamental group",
        tree_flag=True)
    add("homology", "weighted H0 and H1 of a graph")
    lcs = add("lcs", "free ranks of the lower central series quotients",
              tree_flag=True)
    lcs.add_argument("--max-n", type=int, default=6, dest="max_n",
                     help="compute R_1..R_N (default 6)")
    lcs.add_argument("--series-order", type=int, default=16, dest="series_order",
                     help="checked against --max-n; does not change the "
                          "result (default 16)")
    add("vankampen", "check a two-piece cover and compare both presentations")
    filtration = add("filtration", "birth/death events along a filtration")
    filtration.add_argument("--fallback-abelian", action="store_true",
                            dest="fallback_abelian",
                            help="diff abelianizations at stages failing "
                                 "the exactly-two condition")
    add("hamiltonian", "enumerate Hamiltonian-path trees and discriminate them")
    return parser


def _abelian_json(group: AbelianGroup) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.torsion),
        "text": str(group),
    }


def _need_complex(value, verb):
    if not isinstance(value, WeightedComplex):
        raise SchemaError(f"{verb} expects a weighted complex document")
    return value


def _emit(payload, text, as_json: bool):
    """Write the report; only the form asked for needs to be built."""
    print(json.dumps(payload, indent=2) if as_json else text)


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    value = parse_input(args.input)
    verb = args.verb

    if verb == "vankampen":
        if not isinstance(value, CoverSpec):
            raise SchemaError("vankampen expects a cover document with L, K1, K2, K0")
        return _run_vankampen(value, args.as_json)
    if verb == "filtration":
        if not isinstance(value, Filtration):
            raise SchemaError('filtration expects a document with "stages"')
        return _run_filtration(value, args.fallback_abelian, args.as_json)

    complex = _need_complex(value, verb)
    if getattr(args, "tree", None) is not None:
        complex = replace(complex, tree=None)
    report = validate(complex)
    if verb == "validate":
        payload = {
            "ok": report.ok,
            "violations": [{"rule": r, "message": m} for r, m in report.violations],
        }
        lines = ["ok"] if report.ok else [f"[{r}] {m}" for r, m in report.violations]
        _emit(payload, "\n".join(lines), args.as_json)
        return 0 if report.ok else 1

    if not report.ok:
        for rule, message in report.violations:
            print(f"invalid complex [{rule}]: {message}", file=sys.stderr)
        return 1
    if verb in ("present", "classify", "abelianize", "lcs"):
        complex = ensure_tree(complex, args.tree or "bfs")

    if verb == "tree":
        tree = compute_maximal_tree(complex, args.tree or "bfs")
        payload = {"strategy": tree.strategy, "edges": [list(e) for e in tree.edges]}
        text = f"{tree.strategy}: " + ", ".join(
            "{}-{}".format(*complex.edge_labels(e)) for e in tree.edges
        )
        _emit(payload, text, args.as_json)
        return 0

    if verb == "present":
        p = present(complex)
        _emit(presentation_to_json(p), str(p), args.as_json)
        return 0

    if verb == "classify":
        factors = classify(complex)
        payload = {"factors": list(factors.orders), "text": str(factors)}
        _emit(payload, str(factors), args.as_json)
        return 0

    if verb == "abelianize":
        group = abelianization(complex)
        _check_factor_digits(group.torsion)
        _emit(_abelian_json(group), str(group), args.as_json)
        return 0

    if verb == "homology":
        homology = weighted_homology_graph(complex)
        _check_factor_digits(homology.h0.torsion + homology.h1.torsion)
        payload = {"h1": _abelian_json(homology.h1), "h0": _abelian_json(homology.h0)}
        _emit(payload, f"H1 = {homology.h1}\nH0 = {homology.h0}", args.as_json)
        return 0

    if verb == "lcs":
        factors = classify(complex)
        _check_rank_digits(factors.free_count, args.max_n)
        _check_max_n(args.max_n)
        ranks = lcs_free_ranks(factors, args.max_n, args.series_order)
        payload = {
            "factors": list(factors.orders),
            "ranks": list(ranks.ranks),
            "text": _ranks_text(ranks.ranks),
        }
        _emit(payload, _ranks_text(ranks.ranks), args.as_json)
        return 0

    if verb == "hamiltonian":
        trees = enumerate_hamiltonian_trees(complex)
        report = discriminate_trees(complex, trees)
        write = sys.stdout.write
        if args.as_json:
            _write_hamiltonian_json(write, complex.edge_keys, report)
            return 0
        label = {e: "{}-{}".format(*complex.edge_labels(e)) for e in complex.edge_keys}
        write(f"{len(trees)} Hamiltonian tree(s)\n")
        for tree, inv in zip(trees, report.invariants):
            write(f"  [{', '.join([label[e] for e in tree.edges])}] -> {inv}\n")
        write(f"distinguishable: {report.distinguishable}\n")
        return 0

    raise AssertionError(f"unhandled verb {verb}")


def _check_rank_digits(m: int, max_n: int):
    """R_n <= m^n, so no rank can pass RANK_DIGIT_LIMIT digits while
    m^max_n < 10^RANK_DIGIT_LIMIT.  Capping the exponent at MAX_N_LIMIT
    bounds the work and changes nothing."""
    if m > 1 and m ** min(max_n, MAX_N_LIMIT) >= _DIGIT_BOUND:
        raise TooLarge(f"R_{max_n} could exceed {RANK_DIGIT_LIMIT} decimal digits; "
                       "lower --max-n")


def _check_factor_digits(factors):
    """Python writes no integer of more than RANK_DIGIT_LIMIT digits as
    text.  Checked before any output, so that a failing report leaves
    nothing half written on stdout."""
    if any(abs(m) >= _DIGIT_BOUND for m in factors):
        raise TooLarge(f"a group factor has more than {RANK_DIGIT_LIMIT} decimal "
                       "digits and cannot be printed")


def _check_max_n(max_n: int):
    """With m <= 1 infinite factors the ranks are 1, 0, 0, ... or all 0,
    yet each still costs a divisor sum and is printed, so the work grows
    about as max_n^1.5.  The cap bounds it for every m."""
    if max_n > MAX_N_LIMIT:
        raise TooLarge(f"--max-n {max_n} is past the limit of {MAX_N_LIMIT}; "
                       "lower --max-n")


def _write_hamiltonian_json(write, edge_keys, report):
    """Stream the ``hamiltonian --json`` report exactly as
    ``json.dump(payload, indent=2)`` lays it out, without the standard
    library's pure-Python indent encoder (about half of each op on K8):
    the shape is fixed, so each edge's fragment is built once and each
    tree is one join."""
    edge = {e: _json_array(map(str, e), 3) for e in edge_keys}
    write(f'{{\n  "count": {len(report.trees)},\n  "trees": ')
    _write_json_array(write, (_json_array([edge[e] for e in t.edges], 2)
                              for t in report.trees))
    write(',\n  "invariants": ')
    _write_json_array(write, (json.dumps(str(inv)) for inv in report.invariants))
    write(f',\n  "used_abelianization": {json.dumps(report.used_abelianization)},'
          f'\n  "distinguishable": {json.dumps(report.distinguishable)}\n}}\n')


def _json_array(items, depth: int) -> str:
    """An ``indent=2`` JSON array of encoded items, nested ``depth`` deep."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return "[" + pad + body + "\n" + "  " * depth + "]" if body else "[]"


def _write_json_array(write, items):
    """``_json_array`` of a top-level key's value, written item by item."""
    opener = "[\n    "
    for item in items:
        write(opener + item)
        opener = ",\n    "
    write("[]" if opener == "[\n    " else "\n  ]")


def _ranks_text(ranks) -> str:
    return " ".join(f"R{i + 1}={r}" for i, r in enumerate(ranks))


def _run_vankampen(spec: CoverSpec, as_json: bool) -> int:
    report = verify_van_kampen(spec)
    _check_factor_digits(d for g in (report.abelianization_amalgamated,
                                     report.abelianization_direct)
                         if g is not None for d in g.torsion)
    payload = {
        "hypotheses_ok": report.hypotheses_ok,
        "violations": [
            {"rule": r, "message": m} for r, m in report.hypothesis_report.violations
        ],
        "tree_union_ok": report.tree_union_ok,
        "tree_intersection_ok": report.tree_intersection_ok,
        "abelianizations_equal": report.abelianizations_equal,
        "abelianization_amalgamated": (
            None if report.abelianization_amalgamated is None
            else _abelian_json(report.abelianization_amalgamated)
        ),
        "abelianization_direct": (
            None if report.abelianization_direct is None
            else _abelian_json(report.abelianization_direct)
        ),
        "factorizations": (
            None if report.factorizations is None
            else {
                "direct": list(report.factorizations[0].orders),
                "from_cover": list(report.factorizations[1].orders),
            }
        ),
        "generator_classes": (
            None if report.generator_classes is None
            else {
                name: ["{}-{}".format(*e) for e in edges]
                for name, edges in report.generator_classes.items()
            }
        ),
    }
    if report.hypotheses_ok:
        lines = [
            "hypotheses: ok",
            f"tree union equality: {report.tree_union_ok}",
            f"tree intersection equality: {report.tree_intersection_ok}",
            f"abelianization (amalgamated) = {report.abelianization_amalgamated}",
            f"abelianization (direct)      = {report.abelianization_direct}",
            f"abelianizations equal: {report.abelianizations_equal}",
        ]
        if report.factorizations is not None:
            direct, from_cover = report.factorizations
            lines.append(f"factorization (direct)     = {direct}")
            lines.append(f"factorization (from cover) = {from_cover}")
    else:
        lines = ["hypotheses: FAIL"] + [
            f"[{r}] {m}" for r, m in report.hypothesis_report.violations
        ]
    _emit(payload, "\n".join(lines), as_json)
    return 0 if report.hypotheses_ok else 2


def _run_filtration(f: Filtration, fallback_abelian: bool, as_json: bool) -> int:
    for i, stage in enumerate(f.stages):
        report = validate(stage)
        if not report.ok:
            for rule, message in report.violations:
                print(f"stage {i} invalid [{rule}]: {message}", file=sys.stderr)
            return 1
    analysis = analyze_filtration(f, fallback_abelian=fallback_abelian)
    _check_factor_digits(m for fac in analysis.stage_factors for m in fac.orders)
    payload = {
        "stages": [list(fac.orders) for fac in analysis.stage_factors],
        "events": [
            {"stage": e.stage, "kind": e.kind, "factor": e.factor, "region": e.region}
            for e in analysis.events
        ],
        "abelian_fallback_stages": list(analysis.abelian_fallback_stages),
    }
    lines = ["events are multiset differences of consecutive cyclic factorizations"]
    for i, fac in enumerate(analysis.stage_factors):
        lines.append(f"stage {i}: {fac}")
    for e in analysis.events:
        factor = "Z" if e.factor == 0 else f"Z/{e.factor}"
        lines.append(f"stage {e.stage}: {e.kind} {factor} ({e.region})")
    if analysis.abelian_fallback_stages:
        lines.append(
            "warning: abelianization fallback at stages "
            + ", ".join(map(str, analysis.abelian_fallback_stages))
        )
    _emit(payload, "\n".join(lines), as_json)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except WfgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
