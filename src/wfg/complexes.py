"""Weighted simplicial complexes of dimension at most 2.

A complex is an ordered vertex list (list position is the total order on
vertices), integer-weighted edges stored as index pairs (a, b) with a < b,
triangles stored as index triples (a, v, b) with a < v < b, and an optional
maximal tree.  A maximal tree, whether stored, built or enumerated, is a
sorted tuple of its (a, b) edge keys.  All values are immutable; every
operation is a pure function.  ``WeightedComplex(...)`` refuses what no
complex can be (no vertex, a repeated label, a simplex out of range or out
of order, a repeated edge, a tree pair that is no edge) with ``ValueError``,
and a non-integer with ``TypeError``; ``validate`` reports what a complex
can still get wrong: an unclosed face, a disconnected 1-skeleton, a stored
tree that is not a maximal tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from operator import index
from typing import Iterable, Optional

from .errors import MissingTree, NotConnected, SchemaError

EdgeKey = tuple[int, int]
Tree = tuple[EdgeKey, ...]

TREE_STRATEGIES = ("bfs", "kruskal-min", "kruskal-max")


class UnionFind:
    """Union-find counting its components; union returns False when both
    ends already meet."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def union(self, x: int, y: int) -> bool:
        return self.union_all(((x, y),))

    def union_all(self, pairs) -> bool:
        """Union every pair; False when some pair's ends already met.  The
        root search is inlined (with path halving): a per-pair method call
        would cost more than the search on trees of a few edges."""
        parent = self.parent
        joined = True
        for x, y in pairs:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x == y:
                joined = False
            else:
                parent[x] = y
                self.components -= 1
        return joined


@dataclass(frozen=True)
class WeightedComplex:
    """The triple of complex, integer edge weights, and optional maximal tree."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]
    triangles: tuple[tuple[int, int, int], ...] = ()
    tree: Optional[Tree] = None

    def __post_init__(self):
        # operator.index, not int: a weight of 2.5 or "7" is a TypeError.
        # complex_from_json passes these messages on; simplices are numbered
        # by their position in the input.
        vertices = tuple(self.vertices)
        n = len(vertices)
        if not n:
            raise ValueError('"vertices" must contain at least one vertex')
        if len(set(vertices)) != n:
            raise ValueError("vertex labels must be distinct")
        weights: dict[EdgeKey, int] = {}
        for k, (a, b, w) in enumerate(self.edges):
            a, b = index(a), index(b)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge #{k}: endpoints ({a},{b}) out of range")
            if a >= b:
                raise ValueError(f"edge #{k}: endpoints ({a},{b}) must satisfy a < b")
            if (a, b) in weights:
                raise ValueError(f"duplicate edge ({a},{b})")
            weights[a, b] = index(w)
        triangles = [(index(a), index(v), index(b)) for a, v, b in self.triangles]
        for k, (a, v, b) in enumerate(triangles):
            if not (0 <= a < n and 0 <= v < n and 0 <= b < n):
                raise ValueError(f"triangle #{k}: corners ({a},{v},{b}) out of range")
            if not a < v < b:
                raise ValueError(
                    f"triangle #{k}: corners ({a},{v},{b}) must satisfy a < v < b")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(sorted(k + (w,) for k, w in weights.items())))
        object.__setattr__(self, "triangles", tuple(sorted(set(triangles))))
        if self.tree is not None:
            tree = [(index(a), index(b)) for a, b in self.tree]
            for k, (a, b) in enumerate(tree):
                if (a, b) not in weights:
                    raise ValueError(f"tree edge #{k}: ({a},{b}) is not an edge")
            object.__setattr__(self, "tree", tuple(sorted(set(tree))))

    @cached_property
    def edge_keys(self) -> tuple[EdgeKey, ...]:
        return tuple((a, b) for a, b, _ in self.edges)

    @cached_property
    def weight_of(self) -> dict[EdgeKey, int]:
        return {(a, b): w for a, b, w in self.edges}

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {i: [] for i in range(len(self.vertices))}
        for a, b in self.edge_keys:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    def with_tree(self, tree_edges: Iterable[EdgeKey]) -> "WeightedComplex":
        return replace(self, tree=tree_edges)

    def edge_labels(self, key: EdgeKey) -> tuple[str, str]:
        return (self.vertices[key[0]], self.vertices[key[1]])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, str], ...]


def _tree_violations(n: int, known_edges: set[EdgeKey], tree) -> list[tuple[str, str]]:
    """Why an edge set is not a maximal tree on n vertices whose edges are
    ``known_edges``; empty when it is one."""
    known = [e for e in tree if e in known_edges]
    v = [] if len(known) == len(tree) else [
        ("tree-unknown-edge", f"tree edge {e} is not an edge of the complex")
        for e in tree if e not in known_edges]
    uf = UnionFind(n)
    if not uf.union_all(known):
        v.append(("tree-cycle", "tree edges contain a cycle"))
    # A cycle is reported above; this rule asks only whether all n vertices meet.
    if uf.components > 1:
        v.append(("tree-not-spanning", "tree does not span every vertex"))
    return v


def validate(complex: WeightedComplex) -> ValidationReport:
    """Check what a well-formed complex can still get wrong: a triangle
    face that is not an edge, a disconnected 1-skeleton, and a stored tree
    that is not a maximal tree.  Failures are reported, not thrown."""
    v: list[tuple[str, str]] = []
    n = len(complex.vertices)
    edges = set(complex.edge_keys)
    for a, u, b in complex.triangles:
        for e in ((a, u), (u, b), (a, b)):
            if e not in edges:
                v.append(("face-closure", f"triangle ({a},{u},{b}) is missing face edge {e}"))

    skeleton = UnionFind(n)
    skeleton.union_all(complex.edge_keys)
    if skeleton.components > 1:
        v.append(("connected", "the 1-skeleton is not path-connected"))

    if complex.tree is not None:
        v.extend(_tree_violations(n, edges, complex.tree))

    return ValidationReport(not v, tuple(v))


def compute_maximal_tree(complex: WeightedComplex, strategy: str = "bfs") -> Tree:
    """Build a maximal tree deterministically, as its sorted edge keys.

    bfs: breadth-first from vertex 0, visiting neighbors in ascending order.
    kruskal-min / kruskal-max: Kruskal ordered by |weight| ascending or
    descending, lexicographic (a, b) tie-break.
    """
    if strategy not in TREE_STRATEGIES:
        raise ValueError(f"unknown tree strategy {strategy!r}")
    n = len(complex.vertices)
    if strategy == "bfs":
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        edges = []
        while queue:
            v = queue.popleft()
            for u in complex.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    edges.append((min(v, u), max(v, u)))
                    queue.append(u)
    else:
        sign = -1 if strategy == "kruskal-max" else 1
        order = sorted(complex.edge_keys, key=lambda e: (sign * abs(complex.weight_of[e]), e))
        uf = UnionFind(n)
        edges = [e for e in order if uf.union(*e)]
    # Both builds reach every vertex exactly when the 1-skeleton is connected.
    if len(edges) < n - 1:
        raise NotConnected("the 1-skeleton is not path-connected")
    return tuple(sorted(edges))


def ensure_tree(complex: WeightedComplex, strategy: str = "bfs") -> WeightedComplex:
    """The complex itself when it carries a tree, else the complex with the
    maximal tree that ``strategy`` builds."""
    if complex.tree is not None:
        return complex
    return complex.with_tree(compute_maximal_tree(complex, strategy))


def _embedding(inner: WeightedComplex, outer: WeightedComplex) -> Optional[list[int]]:
    """Positions of inner's vertices inside outer, or None when inner's
    labels are not an order-preserving subset of outer's."""
    pos = {label: i for i, label in enumerate(outer.vertices)}
    mapped = []
    for label in inner.vertices:
        if label not in pos:
            return None
        mapped.append(pos[label])
    if any(x >= y for x, y in zip(mapped, mapped[1:])):
        return None
    return mapped


def is_weighted_subcomplex(
    inner: WeightedComplex, outer: WeightedComplex, check_tree: bool = True
) -> bool:
    """True iff inner's simplices sit inside outer with the same weights,
    vertex order preserved, and (when check_tree) inner's tree inside
    outer's tree.  Vertices are matched by label."""
    if check_tree and (inner.tree is None or outer.tree is None):
        raise MissingTree("both complexes need a tree for the subcomplex check")
    emb = _embedding(inner, outer)
    if emb is None:
        return False
    outer_w = outer.weight_of
    for a, b, w in inner.edges:
        key = (emb[a], emb[b])
        if outer_w.get(key) != w:
            return False
    outer_triangles = set(outer.triangles)
    for a, u, b in inner.triangles:
        if (emb[a], emb[u], emb[b]) not in outer_triangles:
            return False
    if check_tree:
        outer_tree = set(outer.tree)
        for a, b in inner.tree:
            if (emb[a], emb[b]) not in outer_tree:
                return False
    return True


def complex_from_json(doc) -> WeightedComplex:
    """Parse the documented JSON schema with field-precise error messages:
    the shape and types are checked here, the structure by the constructor."""
    if not isinstance(doc, dict):
        raise SchemaError("complex document must be a JSON object")
    if "vertices" not in doc:
        raise SchemaError('missing key "vertices"')
    if "edges" not in doc:
        raise SchemaError('missing key "edges"')
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(s, str) for s in vertices):
        raise SchemaError('"vertices" must be a list of strings')

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError('"edges" must be a list')
    for k, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise SchemaError(f'edge #{k} must be an object with keys "a", "b", "w"')
        for field in ("a", "b", "w"):
            if field not in e:
                raise SchemaError(f'edge #{k}: missing key "{field}"')
            if not isinstance(e[field], int) or isinstance(e[field], bool):
                raise SchemaError(f'edge #{k}: "{field}" must be an integer')

    raw_triangles = doc.get("triangles", [])
    if not isinstance(raw_triangles, list):
        raise SchemaError('"triangles" must be a list')
    for k, t in enumerate(raw_triangles):
        if not (isinstance(t, list)
                and all(isinstance(x, int) and not isinstance(x, bool) for x in t)):
            raise SchemaError(f"triangle #{k} must be a list of integers")
        if len(t) > 3:
            raise SchemaError(
                f"simplex #{k} has {len(t)} vertices; dimension is capped at 2 "
                "(only edges and triangles are supported)"
            )
        if len(t) != 3:
            raise SchemaError(f"triangle #{k} must have exactly 3 vertices")

    tree = doc.get("tree")
    if tree is not None:
        if not isinstance(tree, list):
            raise SchemaError('"tree" must be a list of [a, b] pairs')
        for k, e in enumerate(tree):
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
                raise SchemaError(f"tree edge #{k} must be a pair of integers")

    edges = [(e["a"], e["b"], e["w"]) for e in raw_edges]
    try:
        return WeightedComplex(vertices, edges, raw_triangles, tree)
    except ValueError as err:
        raise SchemaError(str(err)) from err


def complex_to_json(complex: WeightedComplex) -> dict:
    doc = {
        "vertices": list(complex.vertices),
        "edges": [{"a": a, "b": b, "w": w} for a, b, w in complex.edges],
        "triangles": [list(t) for t in complex.triangles],
    }
    if complex.tree is not None:
        doc["tree"] = [list(e) for e in complex.tree]
    return doc
