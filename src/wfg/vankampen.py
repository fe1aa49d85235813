"""Gluing two weighted subcomplexes along a common piece.

A cover is four complexes L, K1, K2, K0 with K1 ∪ K2 = L, K1 ∩ K2 = K0,
and K0 a weighted subcomplex of both sides.  Under these hypotheses the
tree of L is forced to be the union of the two side trees and their
intersection is forced to be K0's tree; the amalgamated presentation
doubles the K0 generators into primed/double-primed copies, lays down the
two sides' relators with ``present``'s relator rule, and identifies the
copies.

A verification makes one hypothesis pass (``_hypotheses``: the report and
both tree equalities) and one mapping of K0, K1 and K2 into L's vertex
indices (``_mapped``), from which the amalgamated presentation and the
generator classes are both read.  Group-level equality is undecidable, so
consistency with the direct presentation of L is reported at the
abelianization level (always) and at the cyclic-factorization level (when
the exactly-two condition licenses it).  Vertices are matched across
complexes by label (``WeightedComplex.labels``); every member's vertex
list must embed order-preservingly into L's.
"""

from __future__ import annotations

# Called as module.function, so that a wrapper set on that module (as
# bench/spans.py sets them) sees every call, whenever this module loaded.
from . import complexes, invariants, presentation
from .complexes import LabelEdge, ValidationReport, WeightedComplex, is_weighted_subcomplex
from .errors import HypothesesFailed, SchemaError
from .presentation import Presentation, Word, _relators, generator_label
from .record import Record


class CoverSpec(Record):
    L: WeightedComplex
    K1: WeightedComplex
    K2: WeightedComplex
    K0: WeightedComplex


class VanKampenReport(Record):
    """The fields after the tree equalities are None when the hypotheses
    fail; ``factorizations`` is also None when L fails exactly-two."""

    hypothesis_report: ValidationReport
    tree_union_ok: bool
    tree_intersection_ok: bool
    amalgamated: Presentation | None = None
    direct: Presentation | None = None
    abelianization_amalgamated: AbelianGroup | None = None
    abelianization_direct: AbelianGroup | None = None
    factorizations: tuple[CyclicFactorization, CyclicFactorization] | None = None
    generator_classes: dict[str, tuple[LabelEdge, ...]] | None = None

    @property
    def hypotheses_ok(self) -> bool:
        return self.hypothesis_report.ok

    @property
    def abelianizations_equal(self) -> bool | None:
        if self.abelianization_direct is None:
            return None
        return self.abelianization_amalgamated == self.abelianization_direct


def _hypotheses(spec: CoverSpec) -> tuple[ValidationReport, bool, bool]:
    """The hypothesis report and the two tree equalities of the lemma
    (tree union, tree intersection), both False when a member is invalid
    or has no tree, since the lemma is then not checked."""
    v: list[tuple[str, str]] = []
    members_ok = True
    for name, K in (("L", spec.L), ("K1", spec.K1), ("K2", spec.K2), ("K0", spec.K0)):
        for rule, msg in complexes.validate(K).violations:
            members_ok = False
            v.append((f"{name}-{rule}", f"{name}: {msg}"))
        if K.tree is None:
            v.append((f"{name}-missing-tree", f"{name} has no maximal tree"))
    if not members_ok:
        # Every member is well formed by construction, but relational
        # checks would be meaningless on one that fails validation.
        return ValidationReport(False, tuple(v)), False, False
    trees_ok = not v  # the only violations so far are missing trees

    if trees_ok:
        for a, b in (("K1", "L"), ("K2", "L"), ("K0", "K1"), ("K0", "K2")):
            if not is_weighted_subcomplex(getattr(spec, a), getattr(spec, b)):
                v.append((f"subcomplex-{a}-in-{b}", f"{a} is not a weighted subcomplex of {b}"))

    # Each member's vertex, edge, triangle and tree sets, in vertex labels.
    L, K1, K2, K0 = ((K.labels.position.keys(), K.labels.edges.keys(), K.labels.triangles,
                      K.labels.tree) for K in (spec.L, spec.K1, spec.K2, spec.K0))
    if any(x | y != z for x, y, z in zip(K1[:3], K2[:3], L[:3])):
        v.append(("cover-union", "K1 union K2 differs from L"))
    if any(x & y != z for x, y, z in zip(K1[:3], K2[:3], K0[:3])):
        v.append(("cover-intersection", "K1 intersect K2 differs from K0"))

    union_ok = intersection_ok = False
    if trees_ok:
        union_ok, intersection_ok = K1[3] | K2[3] == L[3], K1[3] & K2[3] == K0[3]
        if not union_ok:
            v.append(("tree-union", "L's tree differs from the union of the side trees"))
        if not intersection_ok:
            v.append(("tree-intersection",
                      "the side trees intersect in more or less than K0's tree"))

    return ValidationReport(not v, tuple(v)), union_ok, intersection_ok


def check_hypotheses(spec: CoverSpec) -> ValidationReport:
    """Verify the cover hypotheses and report the two derived tree
    equalities; nothing is thrown, every failure becomes a violation."""
    return _hypotheses(spec)[0]


def _mapped(spec: CoverSpec):
    """(edges, triangles, tree) of K0, K1 and K2, in that order, written in
    L's vertex indices."""
    at = spec.L.labels.position.__getitem__
    return [tuple({tuple(map(at, simplex)) for simplex in simplices}
                  for simplices in (K.labels.edges, K.labels.triangles, K.labels.tree))
            for K in (spec.K0, spec.K1, spec.K2)]


def _generator_classes(mapped) -> dict[str, tuple[tuple[int, int], ...]]:
    (e0, _, a0), (e1, _, a1), (e2, _, a2) = mapped
    return {
        "A0": tuple(sorted(a0)),
        "K0_minus_A0": tuple(sorted(e0 - a0)),
        "K1_tree_new": tuple(sorted(a1 - e0)),
        "K1_free": tuple(sorted(e1 - e0 - a1)),
        "K2_tree_new": tuple(sorted(a2 - e0)),
        "K2_free": tuple(sorted(e2 - e0 - a2)),
    }


def _amalgamate(L: WeightedComplex, mapped) -> Presentation:
    """The amalgamated presentation of a cover that meets the hypotheses,
    from its members mapped into L (``_mapped``).  Each side lays down
    K0's tree and triangle relators on its own copy of the K0 edges, then
    its own tree and triangle relators outside K0."""
    (e0, t0, a0), *sides = mapped
    plain_edges = sorted(set(L.edge_keys) - e0)
    shared_edges = sorted(e0)
    labels = [generator_label(*e) + mark for mark, edges in
              (("", plain_edges), ("'", shared_edges), ("''", shared_edges)) for e in edges]
    plain = {e: i for i, e in enumerate(plain_edges)}
    n, k = len(plain_edges), len(shared_edges)
    weight = L.weight_of

    relators: list[Word] = []
    for (edges, triangles, tree), offset in zip(sides, (n, n + k)):
        index = plain | {e: offset + i for i, e in enumerate(shared_edges)}
        relators += _relators(index, weight, sorted(a0), sorted(t0))
        relators += _relators(index, weight, sorted(tree - e0), sorted(triangles - t0))
    relators += [((n + i, 1), (n + k + i, -1)) for i in range(k)]
    return Presentation(tuple(labels), tuple(relators))


def amalgamated_presentation(spec: CoverSpec) -> Presentation:
    """Presentation of the glued group: plain generators for edges outside
    K0, primed and double-primed copies for K0 edges, the two sides'
    relator families, and one identification relator per K0 edge."""
    report = check_hypotheses(spec)
    if not report.ok:
        first = "; ".join(msg for _, msg in report.violations[:3])
        raise HypothesesFailed(f"cover hypotheses fail: {first}")
    return _amalgamate(spec.L, _mapped(spec))


def verify_van_kampen(spec: CoverSpec) -> VanKampenReport:
    """Check the hypotheses, build both the amalgamated and the direct
    presentation of L, and compare their computable invariants."""
    report, union_ok, intersection_ok = _hypotheses(spec)
    if not report.ok:
        return VanKampenReport(report, union_ok, intersection_ok)

    mapped = _mapped(spec)
    classes = _generator_classes(mapped)
    amalgamated = _amalgamate(spec.L, mapped)
    direct = presentation.present(spec.L)
    factorizations = None
    if invariants.satisfies_exactly_two(spec.L):
        # The factorization the cover predicts: classify's rule applied to
        # the three tree classes, which are L's tree under the hypotheses.
        cover_tree = classes["A0"] + classes["K1_tree_new"] + classes["K2_tree_new"]
        factorizations = (invariants.classify(spec.L),
                          invariants._tree_factors(spec.L)(cover_tree))

    label_classes = {name: tuple(map(spec.L.edge_labels, edges))
                     for name, edges in classes.items()}
    return VanKampenReport(
        hypothesis_report=report,
        tree_union_ok=union_ok,
        tree_intersection_ok=intersection_ok,
        amalgamated=amalgamated,
        direct=direct,
        abelianization_amalgamated=presentation.abelianized_group(amalgamated),
        abelianization_direct=presentation.abelianized_group(direct),
        factorizations=factorizations,
        generator_classes=label_classes,
    )


def cover_from_json(doc) -> CoverSpec:
    if not isinstance(doc, dict):
        raise SchemaError("cover document must be a JSON object")
    parts = {}
    for key in ("L", "K1", "K2", "K0"):
        if key not in doc:
            raise SchemaError(f'missing key "{key}"')
        try:
            parts[key] = complexes.complex_from_json(doc[key])
        except SchemaError as err:
            raise SchemaError(f"{key}: {err}") from err
    return CoverSpec(**parts)
