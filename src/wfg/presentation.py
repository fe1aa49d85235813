"""Finite presentations of the weighted fundamental group.

One generator per edge (a, b) with a < b.  Relators are freely reduced
words stored as syllables (generator index, nonzero exponent):

* each tree edge ab contributes the relator g_ab^w(ab);
* each triangle a < v < b contributes g_ab^-w(ab) g_av^w(av) g_vb^w(vb),
  the triangle relation moved to one side;
* relators whose exponents are all zero reduce to the empty word and are
  dropped (the generator survives as a free factor).
"""

from __future__ import annotations

from collections.abc import Iterable

# Called as module.function, so that a wrapper set on that module (as
# bench/spans.py sets them) sees every call, whenever this module loaded.
from . import exact
from .complexes import WeightedComplex
from .errors import MissingTree
from .exact import AbelianGroup, IntegerMatrix
from .record import Record

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]


def free_reduce(syllables: Iterable[Syllable]) -> Word:
    """Merge adjacent syllables on the same generator and drop zero exponents."""
    out: list[Syllable] = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return tuple(out)


def generator_label(a: int, b: int) -> str:
    if a < 10 and b < 10:
        return f"g{a}{b}"
    return f"g{a}_{b}"


def word_text(word: Word, generators: tuple[str, ...]) -> str:
    if not word:
        return "1"
    parts = []
    for g, e in word:
        parts.append(generators[g] if e == 1 else f"{generators[g]}^{e}")
    return " ".join(parts)


class Presentation(Record):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(tuple(w) for w in self.relators))
        n = len(self.generators)
        for word in self.relators:
            for g, e in word:
                if not 0 <= g < n:
                    raise ValueError(f"syllable references generator {g} of {n}")
                if e == 0:
                    raise ValueError("zero exponent in a relator word")
            for (g1, _), (g2, _) in zip(word, word[1:]):
                if g1 == g2:
                    raise ValueError("relator is not freely reduced")

    def __str__(self):
        gens = ", ".join(self.generators)
        rels = ", ".join(word_text(w, self.generators) for w in self.relators)
        return f"⟨ {gens} | {rels} ⟩"


def _relators(index, weight, tree, triangles) -> list[Word]:
    """The tree relators, then the triangle relators, freely reduced with
    empty words dropped; ``index`` maps an edge key to its generator."""
    words = [[(index[e], weight[e])] for e in tree]
    words += [[(index[(a, b)], -weight[(a, b)]), (index[(a, v)], weight[(a, v)]),
               (index[(v, b)], weight[(v, b)])] for a, v, b in triangles]
    return [word for word in map(free_reduce, words) if word]


def present(complex: WeightedComplex) -> Presentation:
    """The defining presentation read off the tree and the triangles."""
    if complex.tree is None:
        raise MissingTree("presentation needs a maximal tree")
    keys = complex.edge_keys
    index = {key: i for i, key in enumerate(keys)}
    tree = set(complex.tree)
    relators = _relators(index, complex.weight_of, [key for key in keys if key in tree],
                         complex.triangles)
    return Presentation(tuple(generator_label(a, b) for a, b in keys), tuple(relators))


def abelianized_relation_matrix(p: Presentation) -> IntegerMatrix:
    """One row per relator, one column per generator, entries the signed
    exponent sums; only the nonzeros are stored."""
    rows = []
    for word in p.relators:
        row: dict[int, int] = {}
        for g, e in word:
            row[g] = row.get(g, 0) + e
        rows.append(row)
    return IntegerMatrix.from_sparse_rows(len(p.generators), rows)


def abelianized_group(p: Presentation) -> AbelianGroup:
    """Abelianization of the presented group: in closed form when the
    relation matrix is certified (``_certified_group``), otherwise by the
    invariant-factor kernel."""
    group = _certified_group(p)
    if group is None:
        group = exact.abelian_group_from_matrix(abelianized_relation_matrix(p))
    return group


class _SignedForest:
    """Union-find over elements x = +-root: ``join(x, y, s)`` records
    x = s*y, and is False when x and y are already joined with the other
    sign."""

    def __init__(self, n: int):
        self.parent, self.sign = list(range(n)), [1] * n

    def find(self, x: int) -> tuple[int, int]:
        """(root, s) with x = s*root; the path is compressed."""
        parent, sign = self.parent, self.sign
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for y in reversed(path):
            s = sign[y] = s * sign[y]
            parent[y] = x
        return x, s

    def join(self, x: int, y: int, s: int) -> bool:
        (rx, sx), (ry, sy) = self.find(x), self.find(y)
        if rx == ry:
            return sx == s * sy
        self.parent[rx], self.sign[rx] = ry, s * sx * sy
        return True


def _certified_group(p: Presentation) -> AbelianGroup | None:
    """The abelianization in closed form, or None when the relation matrix
    is not certified as U*diag(|w|) with U totally unimodular.

    A relator g^e h^f with e, f = +-1 says g = -ef*h, so the pair is merged
    (a wrong-signed cycle says 2g = 0: not certified).  Over the merged
    columns every nonzero of column c must be +-|w_c|.  A row +-|w_c| e_c
    splits off Z/|w_c|, and row operations clear the rest of column c.  The
    rows left, less repeats up to sign, are certified when each column has
    at most two nonzeros and the rows can be 2-coloured so that rows
    sharing a column differ in colour when the signs agree and match when
    they differ (Heller & Tompkins, 1956).  Negating one colour then leaves
    the incidence matrix of a graph on the rows and a ground node, less the
    ground row: a column is an edge between its two rows, or from its one
    row to the ground.  ``exact.forest_torsion`` reads off that graph."""
    n = len(p.generators)
    merged, others = _SignedForest(n), []
    for word in p.relators:
        if len(word) == 2 and word[0][1] in (1, -1) and word[1][1] in (1, -1):
            (g, e), (h, f) = word
            if not merged.join(g, h, -e * f):
                return None
        else:
            others.append(word)
    where = [merged.find(g) for g in range(n)]
    width: dict[int, int] = {}  # |w_c| of each merged column c
    rows = []  # the nonzero (column, entry) pairs of each row, by column
    for word in others:
        sums: dict[int, int] = {}
        for g, e in word:
            c, s = where[g]
            sums[c] = sums.get(c, 0) + s * e
        row = [(c, x) for c, x in sorted(sums.items()) if x]
        for c, x in row:
            if width.setdefault(c, abs(x)) != abs(x):
                return None
        rows.append(row)

    split = {row[0][0] for row in rows if len(row) == 1}
    kept: dict[tuple, None] = {}  # the rows left, sign-normalized, in order
    for row in rows:
        items = tuple(pair for pair in row if pair[0] not in split)
        if items:
            kept.setdefault(items if items[0][1] > 0 else tuple((c, -x) for c, x in items))
    ends: dict[int, list[tuple[int, int]]] = {}  # column -> (row, entry) pairs
    for i, items in enumerate(kept):
        for c, x in items:
            ends.setdefault(c, []).append((i, x))
    ground = len(kept)
    colours, edges = _SignedForest(ground), []
    for c, pairs in ends.items():
        if len(pairs) > 2:
            return None
        (i, x), (j, y) = pairs if len(pairs) == 2 else (pairs[0], (ground, 0))
        if y and not colours.join(i, j, -1 if (x > 0) == (y > 0) else 1):
            return None
        edges.append((i, j, width[c]))
    rank, torsion = exact.forest_torsion(ground + 1, edges, [width[c] for c in split])
    columns = sum(c == g for g, (c, _) in enumerate(where))
    return AbelianGroup(columns - len(split) - rank, torsion)


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [[[g, e] for g, e in word] for word in p.relators],
    }
