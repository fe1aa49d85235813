import random

import pytest

from wfg.complexes import WeightedComplex, complex_from_json
from wfg.errors import MissingTree
from wfg.presentation import (
    Presentation,
    abelianized_group,
    abelianized_relation_matrix,
    free_reduce,
    present,
    presentation_to_json,
)

from helpers import load_figure, random_exactly_two_complex, simplify

FIGURE1 = complex_from_json(load_figure("figure1.json"))
FIGURE2 = complex_from_json(load_figure("figure2.json"))


def test_free_reduce_merges_and_drops():
    assert free_reduce([(0, 2), (0, -2), (1, 3)]) == ((1, 3),)
    assert free_reduce([(0, 1), (1, 0), (0, 1)]) == ((0, 2),)
    assert free_reduce([]) == ()


class TestPresent:
    def test_figure1(self):
        p = present(FIGURE1)
        assert p.generators == ("g01", "g02", "g12")
        assert p.relators == (((0, 2),), ((2, 4),))
        assert str(p) == "⟨ g01, g02, g12 | g01^2, g12^4 ⟩"

    def test_filled_simplex_all_ones(self):
        p = present(FIGURE2)
        assert p.generators == ("g01", "g02", "g12")
        assert p.relators == (((0, 1),), ((2, 1),), ((1, -1), (0, 1), (2, 1)))

    def test_single_weighted_edge(self):
        K = WeightedComplex(("v0", "v1"), ((0, 1, 3),), (), ((0, 1),))
        p = present(K)
        assert p.generators == ("g01",)
        assert p.relators == (((0, 3),),)

    def test_zero_weight_tree_edge_gives_no_relator(self):
        K = WeightedComplex(("v0", "v1"), ((0, 1, 0),), (), ((0, 1),))
        assert present(K).relators == ()

    def test_missing_tree(self):
        with pytest.raises(MissingTree):
            present(WeightedComplex(("v0", "v1"), ((0, 1, 1),)))

    def test_generator_and_relator_counts(self):
        rng = random.Random(43)
        for _ in range(60):
            K = random_exactly_two_complex(rng)
            p = present(K)
            assert len(p.generators) == len(K.edges)
            expected = sum(1 for a, b, w in K.edges if (a, b) in set(K.tree) and w != 0)
            expected += sum(
                1
                for a, v, b in K.triangles
                if free_reduce(
                    [(0, -K.weight_of[a, b]), (1, K.weight_of[a, v]), (2, K.weight_of[v, b])]
                )
            )
            assert len(p.relators) == expected


class TestSimplify:
    def test_trivializes_unit_filled_simplex(self):
        p = simplify(present(FIGURE2))
        assert p.generators == ()
        assert p.relators == ()

    def test_keeps_higher_exponents(self):
        p = Presentation(("g01",), (((0, 2),),))
        assert simplify(p) == p

    def test_empty_presentation(self):
        p = Presentation((), ())
        assert simplify(p) == p

    def test_preserves_abelianization(self):
        # abelianized_group runs the invariant-factor kernel, so its result
        # must not change under the Tietze moves of simplify.
        rng = random.Random(47)
        for _ in range(80):
            n = rng.randint(1, 5)
            relators = []
            for _ in range(rng.randint(0, 6)):
                word = free_reduce(
                    (rng.randrange(n), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 4))
                )
                relators.append(word)
            p = Presentation(tuple(f"x{i}" for i in range(n)), tuple(relators))
            assert abelianized_group(simplify(p)) == abelianized_group(p)


class TestAbelianizedMatrix:
    def test_tree_relators(self):
        m = abelianized_relation_matrix(present(FIGURE1))
        assert m.to_rows() == [[2, 0, 0], [0, 0, 4]]

    def test_triangle_relator(self):
        m = abelianized_relation_matrix(present(FIGURE2))
        assert m.to_rows() == [[1, 0, 0], [0, 0, 1], [1, -1, 1]]

    def test_mixed_exponent_relator(self):
        # a^2 = b^2 c^2 stored as a^-2 b^2 c^2.
        p = Presentation(("a", "b", "c"), (((0, -2), (1, 2), (2, 2)),))
        assert abelianized_relation_matrix(p).to_rows() == [[-2, 2, 2]]


def test_json_twin():
    doc = presentation_to_json(present(FIGURE1))
    assert doc == {
        "generators": ["g01", "g02", "g12"],
        "relators": [[[0, 2]], [[2, 4]]],
    }
