"""Gluing two weighted subcomplexes along a common piece.

A cover is four complexes L, K1, K2, K0 with K1 ∪ K2 = L, K1 ∩ K2 = K0,
and K0 a weighted subcomplex of both sides.  Under these hypotheses the
tree of L is forced to be the union of the two side trees and their
intersection is forced to be K0's tree; the amalgamated presentation
doubles the K0 generators into primed/double-primed copies, lays down the
two sides' relators, and identifies the copies.

Group-level equality is undecidable, so consistency with the direct
presentation of L is reported at the abelianization level (always) and at
the cyclic-factorization level (when the exactly-two condition licenses
it).  Vertices are matched across complexes by label; every member's
vertex list must embed order-preservingly into L's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    ValidationReport,
    WeightedComplex,
    _embedding,
    complex_from_json,
    is_weighted_subcomplex,
    validate,
)
from .errors import HypothesesFailed, SchemaError
from .exact import AbelianGroup
from .invariants import (
    CyclicFactorization,
    classify,
    normalize_factorization,
    satisfies_exactly_two,
    triangle_faces,
)
from .presentation import (
    Presentation,
    Word,
    abelianized_group,
    free_reduce,
    generator_label,
    present,
)

LabelEdge = tuple[str, str]


@dataclass(frozen=True)
class CoverSpec:
    L: WeightedComplex
    K1: WeightedComplex
    K2: WeightedComplex
    K0: WeightedComplex


@dataclass(frozen=True)
class VanKampenReport:
    hypotheses_ok: bool
    hypothesis_report: ValidationReport
    tree_union_ok: bool
    tree_intersection_ok: bool
    amalgamated: Optional[Presentation]
    direct: Optional[Presentation]
    abelianization_amalgamated: Optional[AbelianGroup]
    abelianization_direct: Optional[AbelianGroup]
    abelianizations_equal: Optional[bool]
    factorizations: Optional[tuple[CyclicFactorization, CyclicFactorization]]
    generator_classes: Optional[dict[str, tuple[LabelEdge, ...]]]


def _label_vertices(K: WeightedComplex) -> set[str]:
    return set(K.vertices)


def _label_edges(K: WeightedComplex) -> set[LabelEdge]:
    return {(K.vertices[a], K.vertices[b]) for a, b, _ in K.edges}


def _label_triangles(K: WeightedComplex) -> set[tuple[str, str, str]]:
    return {(K.vertices[a], K.vertices[v], K.vertices[b]) for a, v, b in K.triangles}


def _label_tree(K: WeightedComplex) -> set[LabelEdge]:
    return {(K.vertices[a], K.vertices[b]) for a, b in K.tree}


def _lemma_equalities(spec: CoverSpec) -> tuple[bool, bool]:
    b = _label_tree(spec.L)
    a1 = _label_tree(spec.K1)
    a2 = _label_tree(spec.K2)
    a0 = _label_tree(spec.K0)
    return (b == a1 | a2, a1 & a2 == a0)


def check_hypotheses(spec: CoverSpec) -> ValidationReport:
    """Verify the cover hypotheses and report the two derived tree
    equalities; nothing is thrown, every failure becomes a violation."""
    v: list[tuple[str, str]] = []
    members = (("L", spec.L), ("K1", spec.K1), ("K2", spec.K2), ("K0", spec.K0))
    members_ok = True
    trees_ok = True
    for name, K in members:
        rep = validate(K)
        for rule, msg in rep.violations:
            members_ok = False
            v.append((f"{name}-{rule}", f"{name}: {msg}"))
        if K.tree is None:
            trees_ok = False
            v.append((f"{name}-missing-tree", f"{name} has no maximal tree"))
    if not members_ok:
        # Relational checks would be meaningless (and index maps unsafe)
        # on structurally invalid members.
        return ValidationReport(False, tuple(v))

    if trees_ok:
        for name, inner, outer in (
            ("K1-in-L", spec.K1, spec.L),
            ("K2-in-L", spec.K2, spec.L),
            ("K0-in-K1", spec.K0, spec.K1),
            ("K0-in-K2", spec.K0, spec.K2),
        ):
            if not is_weighted_subcomplex(inner, outer):
                a, b = name.split("-in-")
                v.append((f"subcomplex-{name}", f"{a} is not a weighted subcomplex of {b}"))

    if _label_vertices(spec.K1) | _label_vertices(spec.K2) != _label_vertices(spec.L) or \
            _label_edges(spec.K1) | _label_edges(spec.K2) != _label_edges(spec.L) or \
            _label_triangles(spec.K1) | _label_triangles(spec.K2) != _label_triangles(spec.L):
        v.append(("cover-union", "K1 union K2 differs from L"))
    if _label_vertices(spec.K1) & _label_vertices(spec.K2) != _label_vertices(spec.K0) or \
            _label_edges(spec.K1) & _label_edges(spec.K2) != _label_edges(spec.K0) or \
            _label_triangles(spec.K1) & _label_triangles(spec.K2) != _label_triangles(spec.K0):
        v.append(("cover-intersection", "K1 intersect K2 differs from K0"))

    if trees_ok:
        union_ok, intersection_ok = _lemma_equalities(spec)
        if not union_ok:
            v.append(("tree-union", "L's tree differs from the union of the side trees"))
        if not intersection_ok:
            v.append(("tree-intersection",
                      "the side trees intersect in more or less than K0's tree"))

    return ValidationReport(not v, tuple(v))


def _mapped(spec: CoverSpec):
    """Edge/triangle/tree sets of K0, K1, K2 written in L's vertex indices."""
    out = {}
    for name, K in (("K0", spec.K0), ("K1", spec.K1), ("K2", spec.K2)):
        emb = _embedding(K, spec.L)
        out[name] = {
            "edges": {(emb[a], emb[b]) for a, b, _ in K.edges},
            "triangles": {(emb[a], emb[v], emb[b]) for a, v, b in K.triangles},
            "tree": {(emb[a], emb[b]) for a, b in K.tree},
        }
    return out


def _generator_classes(spec: CoverSpec) -> dict[str, tuple[tuple[int, int], ...]]:
    m = _mapped(spec)
    e0, e1, e2 = m["K0"]["edges"], m["K1"]["edges"], m["K2"]["edges"]
    a0, a1, a2 = m["K0"]["tree"], m["K1"]["tree"], m["K2"]["tree"]
    return {
        "A0": tuple(sorted(a0)),
        "K0_minus_A0": tuple(sorted(e0 - a0)),
        "K1_tree_new": tuple(sorted(a1 - e0)),
        "K1_free": tuple(sorted(e1 - e0 - a1)),
        "K2_tree_new": tuple(sorted(a2 - e0)),
        "K2_free": tuple(sorted(e2 - e0 - a2)),
    }


def amalgamated_presentation(spec: CoverSpec) -> Presentation:
    """Presentation of the glued group: plain generators for edges outside
    K0, primed and double-primed copies for K0 edges, the two sides'
    relator families, and one identification relator per K0 edge."""
    report = check_hypotheses(spec)
    if not report.ok:
        first = "; ".join(msg for _, msg in report.violations[:3])
        raise HypothesesFailed(f"cover hypotheses fail: {first}")

    L = spec.L
    m = _mapped(spec)
    e0 = m["K0"]["edges"]
    t0 = m["K0"]["triangles"]
    a0 = m["K0"]["tree"]
    plain_edges = sorted(set(L.edge_keys) - e0)
    shared_edges = sorted(e0)

    labels = [generator_label(a, b) for a, b in plain_edges]
    labels += [generator_label(a, b) + "'" for a, b in shared_edges]
    labels += [generator_label(a, b) + "''" for a, b in shared_edges]
    plain = {e: i for i, e in enumerate(plain_edges)}
    primed = {e: len(plain_edges) + i for i, e in enumerate(shared_edges)}
    doubled = {e: len(plain_edges) + len(shared_edges) + i
               for i, e in enumerate(shared_edges)}
    weight = L.weight_of

    relators: list[Word] = []

    def emit(word):
        reduced = free_reduce(word)
        if reduced:
            relators.append(reduced)

    def triangle_word(tri, gen_of):
        a, v, b = tri
        return [
            (gen_of[(a, b)], -weight[(a, b)]),
            (gen_of[(a, v)], weight[(a, v)]),
            (gen_of[(v, b)], weight[(v, b)]),
        ]

    def side_relators(side: str, copy: dict):
        gen_of = {e: copy[e] if e in e0 else plain[e] for e in m[side]["edges"]}
        for e in sorted(a0):
            emit([(copy[e], weight[e])])
        for tri in sorted(t0):
            emit(triangle_word(tri, gen_of))
        for e in sorted(m[side]["tree"] - e0):
            emit([(gen_of[e], weight[e])])
        for tri in sorted(m[side]["triangles"] - t0):
            emit(triangle_word(tri, gen_of))

    side_relators("K1", primed)
    side_relators("K2", doubled)
    for e in shared_edges:
        emit([(primed[e], 1), (doubled[e], -1)])

    return Presentation(tuple(labels), tuple(relators))


def _cover_factorization(spec: CoverSpec) -> CyclicFactorization:
    """Factor multiset predicted by the six generator classes: the three
    tree classes contribute |w|, the three non-tree classes contribute |w|
    when the edge bounds a triangle of L and an infinite factor otherwise."""
    classes = _generator_classes(spec)
    weight = spec.L.weight_of
    faces = triangle_faces(spec.L)
    raw = []
    for name in ("A0", "K1_tree_new", "K2_tree_new"):
        raw.extend(weight[e] for e in classes[name])
    for name in ("K0_minus_A0", "K1_free", "K2_free"):
        raw.extend(weight[e] if e in faces else 0 for e in classes[name])
    return normalize_factorization(raw)


def verify_van_kampen(spec: CoverSpec) -> VanKampenReport:
    """Check the hypotheses, build both the amalgamated and the direct
    presentation of L, and compare their computable invariants."""
    report = check_hypotheses(spec)
    if not report.ok:
        rules = {rule for rule, _ in report.violations}
        member_trouble = any(
            rule.split("-", 1)[0] in ("L", "K1", "K2", "K0") for rule in rules
        )
        return VanKampenReport(
            hypotheses_ok=False,
            hypothesis_report=report,
            tree_union_ok=not member_trouble and "tree-union" not in rules,
            tree_intersection_ok=not member_trouble and "tree-intersection" not in rules,
            amalgamated=None,
            direct=None,
            abelianization_amalgamated=None,
            abelianization_direct=None,
            abelianizations_equal=None,
            factorizations=None,
            generator_classes=None,
        )

    union_ok, intersection_ok = _lemma_equalities(spec)
    amalgamated = amalgamated_presentation(spec)
    direct = present(spec.L)
    ab_amalgamated = abelianized_group(amalgamated)
    ab_direct = abelianized_group(direct)
    factorizations = None
    if satisfies_exactly_two(spec.L):
        factorizations = (classify(spec.L), _cover_factorization(spec))

    classes = _generator_classes(spec)
    label_classes = {
        name: tuple(spec.L.edge_labels(e) for e in edges)
        for name, edges in classes.items()
    }
    return VanKampenReport(
        hypotheses_ok=True,
        hypothesis_report=report,
        tree_union_ok=union_ok,
        tree_intersection_ok=intersection_ok,
        amalgamated=amalgamated,
        direct=direct,
        abelianization_amalgamated=ab_amalgamated,
        abelianization_direct=ab_direct,
        abelianizations_equal=ab_amalgamated == ab_direct,
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
            parts[key] = complex_from_json(doc[key])
        except SchemaError as err:
            raise SchemaError(f"{key}: {err}") from err
    return CoverSpec(**parts)
