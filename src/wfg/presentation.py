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
    """Abelianization of the presented group, by Smith normal form."""
    return exact.abelian_group_from_matrix(abelianized_relation_matrix(p))


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [[[g, e] for g, e in word] for word in p.relators],
    }
