"""Command line front end.

Each verb is one report function ``(document, args) -> (payload, text,
exit code)``, bound to its subparser with ``set_defaults``. ``run`` reads
and checks the document (``_document``), calls the report, and prints the
payload as indented JSON with ``--json``, the text otherwise. A report
that writes its own output (``hamiltonian`` streams its trees) returns
``None`` once it has written. A complex that fails validation raises
``_Invalid``, whose lines ``main`` writes to stderr.

A process imports only what its verb runs: beyond ``complexes``, each
report (and each document shape in ``parse_input``) imports the modules
it calls, so that a run of one verb does not pay for loading the others.

Exit codes: 0 success, 1 malformed input or failed validation, 2 violated
mathematical precondition (for example the exactly-two condition).
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import (
    TREE_STRATEGIES,
    WeightedComplex,
    complex_from_json,
    compute_maximal_tree,
    ensure_tree,
    validate,
)
from .errors import InputError, ParseError, SchemaError, TooLarge, WfgError
from .record import replace

# The most decimal digits Python converts to text: the interpreter's limit
# (0 means none, and Python before 3.10.7 has none), capped at the default
# of 4300 so that a raised limit does not move the documented bounds.
RANK_DIGIT_LIMIT = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)
_DIGIT_BOUND = 10 ** RANK_DIGIT_LIMIT  # the least integer past the limit
# Largest --max-n for any factorization.  Since 2^(10k/3) > 10^k, every
# larger max_n already fails the digit bound when m >= 2.
MAX_N_LIMIT = RANK_DIGIT_LIMIT * 10 // 3


def parse_input(path: str):
    """Load a complex, cover, or filtration document, detected by shape."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, ValueError) as err:
        # UnicodeDecodeError is a ValueError, as is open's "embedded null byte".
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        # JSONDecodeError is a ValueError, as are integer literals past
        # Python's digit limit; deep nesting exhausts the recursion limit.
        raise ParseError(f"{path}: not valid JSON: {err}") from err
    if isinstance(doc, dict) and "stages" in doc:
        from .analysis import filtration_from_json
        return filtration_from_json(doc)
    if isinstance(doc, dict) and ("L" in doc or "K1" in doc):
        from .vankampen import cover_from_json
        return cover_from_json(doc)
    return complex_from_json(doc)


_TREE_HELP = {
    "use": "build the tree with this strategy, ignoring (and not validating) "
           "the document's tree; default: use the document's tree, else bfs",
    "build": "the strategy of the tree to build (default bfs); a stored tree "
             "is ignored",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfg",
        description="Weighted fundamental groups of weighted simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # What every verb shares, and --tree per help text, declared once as parents.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="path to a JSON input document")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a machine-readable JSON report")
    parents = {None: [common]}
    for tree, help_text in _TREE_HELP.items():
        with_tree = argparse.ArgumentParser(add_help=False, parents=[common])
        with_tree.add_argument("--tree", choices=TREE_STRATEGIES, help=help_text)
        parents[tree] = [with_tree]

    def add(verb, help_text, report, kind="WeightedComplex", tree=None):
        """``kind`` names the class of document the verb takes; ``tree`` is
        "use" for a verb that needs the complex's tree (the document's, else
        one built), "build" for one that builds its own."""
        p = sub.add_parser(verb, help=help_text, parents=parents[tree])
        p.set_defaults(report=report, kind=kind, needs_tree=tree == "use")
        return p

    add("validate", "check face closure, connectivity and the stored tree of a complex",
        _validate_report)
    add("tree", "compute a maximal tree", _tree_report, tree="build")
    add("present", "print the presentation of the weighted fundamental group",
        _present_report, tree="use")
    add("classify", "free product of cyclic groups (exactly-two condition)",
        _classify_report, tree="use")
    add("abelianize", "abelianization of the weighted fundamental group",
        _abelianize_report, tree="use")
    add("homology", "weighted H0 and H1 of a graph", _homology_report)
    lcs = add("lcs", "free ranks of the lower central series quotients",
              _lcs_report, tree="use")
    lcs.add_argument("--max-n", type=int, default=6, dest="max_n",
                     help="compute R_1..R_N (default 6)")
    add("vankampen", "check a two-piece cover and compare both presentations",
        _vankampen_report, kind="CoverSpec")
    filtration = add("filtration", "birth/death events along a filtration",
                     _filtration_report, kind="Filtration")
    filtration.add_argument("--fallback-abelian", action="store_true",
                            dest="fallback_abelian",
                            help="diff abelianizations at stages failing "
                                 "the exactly-two condition")
    add("hamiltonian", "enumerate Hamiltonian-path trees and discriminate them",
        _hamiltonian_report)
    return parser


class _Invalid(Exception):
    """Validation failures, one stderr line each; ``main`` exits 1."""


def _require_valid(complex: WeightedComplex, prefix: str):
    report = validate(complex)
    if not report.ok:
        raise _Invalid("\n".join(f"{prefix} [{r}]: {m}" for r, m in report.violations))


# parse_input builds exactly these classes, so the class name tells the
# kind without importing the modules of the other two.
_KINDS = {"WeightedComplex": "a weighted complex document",
          "CoverSpec": "a cover document with L, K1, K2, K0",
          "Filtration": 'a document with "stages"'}


def _document(args):
    """The input document, checked as the verb needs it: its kind and, for
    a complex (except for ``validate``, which reports the check), dropping
    a stored tree the verb does not use (every verb but those that need a
    tree, and those under ``--tree``), ``validate`` and ``ensure_tree``."""
    value = parse_input(args.input)
    if type(value).__name__ != args.kind:
        raise SchemaError(f"{args.verb} expects {_KINDS[args.kind]}")
    if args.kind != "WeightedComplex" or args.report is _validate_report:
        return value
    if not args.needs_tree or args.tree is not None:
        value = replace(value, tree=None)
    _require_valid(value, "invalid complex")
    return ensure_tree(value, args.tree or "bfs") if args.needs_tree else value


def _abelian_json(group) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.torsion),
        "text": str(group),
    }


def _maybe(convert, value):
    return None if value is None else convert(value)


def _validate_report(complex, args):
    report = validate(complex)
    payload = {
        "ok": report.ok,
        "violations": [{"rule": r, "message": m} for r, m in report.violations],
    }
    lines = ["ok"] if report.ok else [f"[{r}] {m}" for r, m in report.violations]
    return payload, "\n".join(lines), 0 if report.ok else 1


def _tree_report(complex, args):
    strategy = args.tree or "bfs"
    tree = compute_maximal_tree(complex, strategy)
    payload = {"strategy": strategy, "edges": [list(e) for e in tree]}
    text = f"{strategy}: " + ", ".join(
        "{}-{}".format(*complex.edge_labels(e)) for e in tree
    )
    return payload, text, 0


def _present_report(complex, args):
    from .presentation import present, presentation_to_json
    p = present(complex)
    return presentation_to_json(p), str(p), 0


def _classify_report(complex, args):
    from .invariants import classify
    factors = classify(complex)
    return {"factors": list(factors.orders), "text": str(factors)}, str(factors), 0


def _abelianize_report(complex, args):
    from .invariants import abelianization
    group = abelianization(complex)
    _check_factor_digits(group.torsion)
    return _abelian_json(group), str(group), 0


def _homology_report(complex, args):
    from .invariants import weighted_homology_graph
    homology = weighted_homology_graph(complex)
    _check_factor_digits(homology.h0.torsion + homology.h1.torsion)
    payload = {"h1": _abelian_json(homology.h1), "h0": _abelian_json(homology.h0)}
    return payload, f"H1 = {homology.h1}\nH0 = {homology.h0}", 0


def _lcs_report(complex, args):
    from .invariants import classify, lcs_free_ranks
    factors = classify(complex)
    _check_rank_digits(factors.free_count, args.max_n)
    _check_max_n(args.max_n)
    ranks = lcs_free_ranks(factors, args.max_n)
    text = " ".join(f"R{n}={r}" for n, r in enumerate(ranks, 1))
    return {"factors": list(factors.orders), "ranks": list(ranks), "text": text}, text, 0


def _hamiltonian_report(complex, args):
    """Every Hamiltonian tree with its invariant, streamed by the writer
    beside the enumerator."""
    from .analysis import write_hamiltonian_report
    write_hamiltonian_report(complex, args.as_json, sys.stdout.write)
    return None


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


def _vankampen_report(spec, args):
    from .vankampen import verify_van_kampen
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
        "abelianization_amalgamated": _maybe(_abelian_json,
                                             report.abelianization_amalgamated),
        "abelianization_direct": _maybe(_abelian_json, report.abelianization_direct),
        "factorizations": _maybe(
            lambda fs: {"direct": list(fs[0].orders), "from_cover": list(fs[1].orders)},
            report.factorizations),
        "generator_classes": _maybe(
            lambda classes: {name: ["{}-{}".format(*e) for e in edges]
                             for name, edges in classes.items()},
            report.generator_classes),
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
    return payload, "\n".join(lines), 0 if report.hypotheses_ok else 2


def _filtration_report(f, args):
    from .analysis import analyze_filtration
    for i, stage in enumerate(f.stages):
        _require_valid(stage, f"stage {i} invalid")
    analysis = analyze_filtration(f, fallback_abelian=args.fallback_abelian)
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
    return payload, "\n".join(lines), 0


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    result = args.report(_document(args), args)
    if result is None:  # the report wrote its own output
        return 0
    payload, text, code = result
    print(json.dumps(payload, indent=2) if args.as_json else text)
    return code


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Python's SIGPIPE note: point fd 1 at
        # the null device, so that the flush at exit cannot fail again.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _Invalid as err:
        print(err, file=sys.stderr)
        return 1
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except WfgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
