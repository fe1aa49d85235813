import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfg import exact
from wfg.complexes import WeightedComplex, complex_from_json
from wfg.errors import MissingTree
from wfg.exact import AbelianGroup
from wfg.presentation import (
    Presentation,
    _certified_group,
    abelianized_group,
    abelianized_relation_matrix,
    free_reduce,
    present,
    presentation_to_json,
)
from wfg.vankampen import _amalgamate, _mapped

from helpers import (
    complexes_with_trees,
    coned_grid,
    holed_grid,
    load_figure,
    mobius_grid,
    random_exactly_two_complex,
    simplify,
    split_grid_cover,
    triangulated_grid,
)

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


def kernel_group(p: Presentation) -> AbelianGroup:
    return exact.abelian_group_from_matrix(abelianized_relation_matrix(p))


class TestCertifiedGroup:
    """The closed form on certified relation matrices and the sparse kernel
    are independent oracles for each other."""

    @settings(max_examples=300)
    @given(complexes_with_trees())
    def test_complexes_with_every_drawn_tree(self, drawn):
        K, trees = drawn
        for tree in trees:
            p = present(K.with_tree(tree))
            group = _certified_group(p)
            assert group is None or group == kernel_group(p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.randoms(use_true_random=False),
           st.sampled_from([5, 10 ** 6, 2 ** 64]))
    def test_grids(self, k, rng, high):
        p = present(triangulated_grid(rng, k, high))
        group = _certified_group(p)
        assert group is None or group == kernel_group(p)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4, 6]), st.randoms(use_true_random=False),
           st.sampled_from([5, 10 ** 6, 2 ** 64]))
    def test_split_grid_covers(self, k, rng, high):
        spec = split_grid_cover(rng, k, (-high, high))
        for p in (_amalgamate(spec.L, _mapped(spec)), present(spec.L)):
            group = _certified_group(p)
            assert group is None or group == kernel_group(p)

    @pytest.mark.parametrize("k", [3, 4])
    def test_greedy_takes_least_valuations_first(self, k):
        # With holes (first Betti number > 0) not every column is in every
        # basis, so a greedy in any other order finds other factors.
        rng = random.Random(k)
        for _ in range(20):
            p = present(holed_grid(rng, k))
            assert _certified_group(p) == kernel_group(p)

    @pytest.mark.parametrize("p", [
        pytest.param(present(mobius_grid(random.Random(3), 3)), id="moebius-3"),
        pytest.param(present(mobius_grid(random.Random(4), 4)), id="moebius-4"),
        pytest.param(present(coned_grid(random.Random(2), 2)), id="coned-2"),
    ])
    def test_uncertified_complexes_fall_back(self, p):
        assert _certified_group(p) is None
        assert abelianized_group(p) == kernel_group(p)

    def test_unequal_weights_on_merged_columns(self):
        # <a, b | a^2, b^3, a b^-1>: a = b, so the column holds 2 and 3.
        p = Presentation(("a", "b"), (((0, 2),), ((1, 3),), ((0, 1), (1, -1))))
        assert _certified_group(p) is None
        assert abelianized_group(p) == AbelianGroup(0)

    def test_contradictory_merge(self):
        # <a, b | a b^-1, a b>: a = b and a = -b, so 2a = 0.
        p = Presentation(("a", "b"), (((0, 1), (1, -1)), ((0, 1), (1, 1))))
        assert _certified_group(p) is None
        assert abelianized_group(p) == AbelianGroup(0, (2,))

    def test_consistent_merges_and_free_columns(self):
        # <a, b, c, d | a b, b c^-1, a c, d^4>: a = -b = -c, so the merge
        # a c closes a cycle with the right sign, and a, d give Z + Z/4.
        p = Presentation(("a", "b", "c", "d"), (((0, 1), (1, 1)), ((1, 1), (2, -1)),
                                                ((0, 1), (2, 1)), ((3, 4),)))
        assert _certified_group(p) == kernel_group(p) == AbelianGroup(1, (4,))


def test_json_twin():
    doc = presentation_to_json(present(FIGURE1))
    assert doc == {
        "generators": ["g01", "g02", "g12"],
        "relators": [[[0, 2]], [[2, 4]]],
    }
