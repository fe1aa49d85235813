import heapq
import random
import types

import pytest
from hypothesis import given

from wfg.complexes import WeightedComplex, complex_from_json
from wfg.errors import (
    ConditionFailed,
    HasTriangles,
    MissingTree,
    NonPositive,
    TruncationTooSmall,
    ZeroWeightEdge,
)
from wfg import exact
from wfg.exact import AbelianGroup, IntegerMatrix, smith_normal_form
from wfg.presentation import abelianized_relation_matrix, present
from wfg.vankampen import amalgamated_presentation, verify_van_kampen
from wfg.invariants import (
    CyclicFactorization,
    abelianization,
    classify,
    lcs_free_ranks,
    normalize_factorization,
    realize,
    satisfies_exactly_two,
    weighted_homology_graph,
    witt_rank,
)

from helpers import (
    big_weight_grid,
    check_all_pm1_reduction,
    check_equal_weight_tree_independence,
    check_realize_roundtrip,
    check_relabel_invariance,
    check_sign_flip_invariance,
    classify_oracle,
    complexes,
    complexes_with_trees,
    dense_abelian_group,
    diagonal_group,
    grid_skeleton,
    lcs_ranks_oracle,
    load_figure,
    random_connected_graph,
    random_mixed_factorization,
    random_spanning_tree,
    split_grid_cover,
    triangulated_grid,
    with_weights,
)

FIGURE1 = complex_from_json(load_figure("figure1.json"))
FIGURE2 = complex_from_json(load_figure("figure2.json"))
FIGURE3 = complex_from_json(load_figure("figure3.json"))
HEXAGON = complex_from_json(load_figure("figure6-hexagon.json"))


class TestNormalizeFactorization:
    def test_signs_and_units_dropped(self):
        assert normalize_factorization([2, -4, 1]).orders == (2, 4)

    def test_empty_is_trivial_group(self):
        fac = normalize_factorization([])
        assert fac.orders == ()
        assert str(fac) == "1"

    def test_zeros_survive(self):
        assert normalize_factorization([0, 0, -1]).orders == (0, 0)

    def test_rendering_zeros_first(self):
        assert str(normalize_factorization([4, 0, 2])) == "Z * Z/2 * Z/4"

    @pytest.mark.parametrize("orders, bad", [
        ((0, 1), 1), ((2, -1), -1), ((1, -3, 0), -3), ((True,), 1),
    ])
    def test_unnormalized_orders_rejected(self, orders, bad):
        with pytest.raises(ValueError, match=f"cyclic order {bad} is not normalized"):
            CyclicFactorization(orders)

    def test_orders_become_sorted_ints(self):
        assert CyclicFactorization((3.0, False, 2)).orders == (0, 2, 3)
        assert type(CyclicFactorization((3.0,)).orders[0]) is int


class TestExactlyTwo:
    def test_graphs_vacuously_satisfy(self):
        assert satisfies_exactly_two(FIGURE1)

    def test_filled_simplex_with_two_tree_edges(self):
        assert satisfies_exactly_two(FIGURE2)

    def test_figure3_fails(self):
        assert not satisfies_exactly_two(FIGURE3)

    def test_missing_tree(self):
        with pytest.raises(MissingTree):
            satisfies_exactly_two(WeightedComplex(("v0",), ()))


class TestClassify:
    def test_figure1(self):
        assert classify(FIGURE1).orders == (0, 2, 4)

    def test_filled_simplex_takes_all_three_weights(self):
        K = with_weights(FIGURE2, lambda a, b, w: {(0, 1): 3, (0, 2): -4, (1, 2): 5}[(a, b)])
        assert classify(K).orders == (3, 4, 5)

    def test_hexagon_ring(self):
        assert classify(HEXAGON).orders == (0, 2, 2, 2)

    def test_condition_failure_carries_triangle(self):
        with pytest.raises(ConditionFailed) as err:
            classify(FIGURE3)
        assert err.value.triangle == (1, 3, 4)
        assert "(v1,v3,v4)" in str(err.value)

    @given(K=complexes())
    def test_matches_oracle_on_any_stored_tree(self, K):
        # Stored trees here may be partial, cyclic or missing vertices.
        self.check_against_oracle(K)

    @given(case=complexes_with_trees())
    def test_matches_oracle_on_maximal_trees(self, case):
        K, trees = case
        for t in trees:
            self.check_against_oracle(K.with_tree(t))

    @staticmethod
    def check_against_oracle(K):
        if K.tree is None:
            with pytest.raises(MissingTree):
                classify(K)
            return
        try:
            expected = classify_oracle(K)
        except ConditionFailed as err:
            with pytest.raises(ConditionFailed) as got:
                classify(K)
            assert (str(got.value), got.value.triangle) == (str(err), err.triangle)
        else:
            assert classify(K) == expected

    def test_graph_formula(self):
        # E - V + 1 free factors plus the nontrivial |w| of tree edges.
        rng = random.Random(53)
        for _ in range(60):
            K = random_connected_graph(rng)
            K = K.with_tree(random_spanning_tree(K, rng))
            expected = [0] * (len(K.edges) - len(K.vertices) + 1)
            expected += [
                abs(w) for a, b, w in K.edges
                if (a, b) in set(K.tree) and abs(w) != 1
            ]
            assert classify(K) == normalize_factorization(expected)


class TestRealize:
    def test_two_three(self):
        K = realize(CyclicFactorization((2, 3)))
        assert K.vertices == ("v0", "v1", "v2")
        assert K.edges == ((0, 1, 2), (0, 2, 3))
        assert K.tree == ((0, 1), (0, 2))
        assert classify(K).orders == (2, 3)

    def test_trivial_group_is_a_point(self):
        K = realize(CyclicFactorization(()))
        assert K.vertices == ("v0",)
        assert classify(K).orders == ()

    def test_zero_order_round_trips(self):
        assert classify(realize(CyclicFactorization((0,)))).orders == (0,)

    def test_random_round_trip(self):
        check_realize_roundtrip(random.Random(59), 60)


class TestAbelianization:
    def test_figure1(self):
        assert abelianization(FIGURE1) == AbelianGroup(1, (2, 4))

    def test_figure3_all_weights_two(self):
        assert abelianization(FIGURE3) == AbelianGroup(2, (2, 2, 2, 2, 2))

    def test_unit_filled_simplex_is_trivial(self):
        assert abelianization(FIGURE2) == AbelianGroup(0)

    def test_coherent_with_classification(self):
        rng = random.Random(61)
        from helpers import random_exactly_two_complex

        for _ in range(60):
            K = random_exactly_two_complex(rng)
            assert abelianization(K) == classify(K).as_abelian()


class TestWeightedHomology:
    def test_figure1_weights_2_1_4(self):
        h = weighted_homology_graph(FIGURE1)
        assert h.h1 == AbelianGroup(1)
        assert h.h0 == AbelianGroup(1, (2,))

    def test_figure1_unit_weights(self):
        h = weighted_homology_graph(with_weights(FIGURE1, lambda a, b, w: 1))
        assert h.h1 == AbelianGroup(1)
        assert h.h0 == AbelianGroup(1)

    def test_single_vertex(self):
        h = weighted_homology_graph(WeightedComplex(("v0",), ()))
        assert h.h1 == AbelianGroup(0)
        assert h.h0 == AbelianGroup(1)

    def test_triangles_rejected(self):
        with pytest.raises(HasTriangles):
            weighted_homology_graph(FIGURE2)

    def test_zero_weight_rejected(self):
        K = with_weights(FIGURE1, lambda a, b, w: 0 if (a, b) == (0, 1) else w)
        with pytest.raises(ZeroWeightEdge):
            weighted_homology_graph(K)


class TestSparseKernelOnGrids:
    """Grids fill in under elimination and make Markowitz order matter,
    which small random matrices do not; the dense Smith form is the
    oracle."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_triangulated_grid(self, k):
        rng = random.Random(k)
        for _ in range(3):
            K = triangulated_grid(rng, k)
            A = abelianized_relation_matrix(present(K))
            assert abelianization(K) == dense_abelian_group(A, A.cols)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_skeleton_homology(self, k):
        rng = random.Random(k)
        for _ in range(3):
            K = grid_skeleton(rng, k)
            n_v, n_e = len(K.vertices), len(K.edges)
            boundary = [[0] * n_e for _ in range(n_v)]
            for j, (a, b, w) in enumerate(K.edges):
                boundary[a][j] -= w
                boundary[b][j] += w
            diag = smith_normal_form(IntegerMatrix.from_rows(boundary, n_e)).diagonal()
            rank = sum(1 for d in diag if d)
            homology = weighted_homology_graph(K)
            assert homology.h0 == diagonal_group(diag, n_v)
            assert homology.h1 == AbelianGroup(n_e - rank)

    @pytest.mark.parametrize("k", (2, 4))
    def test_split_grid_cover(self, k):
        rng = random.Random(k)
        for _ in range(3):
            spec = split_grid_cover(rng, k)
            report = verify_van_kampen(spec)
            assert report.hypotheses_ok and report.abelianizations_equal
            A = abelianized_relation_matrix(amalgamated_presentation(spec))
            assert report.abelianization_amalgamated == dense_abelian_group(A, A.cols)
            A = abelianized_relation_matrix(present(spec.L))
            assert report.abelianization_direct == dense_abelian_group(A, A.cols)

    @pytest.mark.parametrize("k", range(2, 5))
    def test_big_weight_grid(self, k):
        K = big_weight_grid(random.Random(k), k)
        A = abelianized_relation_matrix(present(K))
        assert abelianization(K) == dense_abelian_group(A, A.cols)

    def test_heap_pushes_pinned(self, monkeypatch):
        """The heap holds one key per row and a step pushes only the keys it
        changed.  A heap with one key per entry made 19,050 pushes on the
        skeleton below and 145,652 on the big-weight grid; the pivots, and
        so the results, are the same."""
        pushes = []

        def heappush(heap, item):
            pushes.append(item)
            heapq.heappush(heap, item)

        counting = types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop,
                                         heapify=heapq.heapify)
        monkeypatch.setattr(exact, "heapq", counting)
        weighted_homology_graph(grid_skeleton(random.Random(8), 8))
        assert len(pushes) <= 5_000
        pushes.clear()
        abelianization(big_weight_grid(random.Random(5), 6))
        assert len(pushes) <= 20_000

    def test_no_library_path_runs_the_dense_form(self, monkeypatch):
        def refuse(A):
            raise AssertionError("dense Smith form called")

        monkeypatch.setattr(exact, "smith_normal_form", refuse)
        rng = random.Random(0)
        abelianization(triangulated_grid(rng, 3))
        weighted_homology_graph(grid_skeleton(rng, 3))
        verify_van_kampen(split_grid_cover(rng, 2))


class TestLcsFreeRanks:
    def test_two_free_one_torsion(self):
        ranks = lcs_free_ranks(CyclicFactorization((0, 0, 2)), 2)
        assert ranks.r(1) == 2
        assert ranks.r(2) == 1

    def test_free_group_of_rank_two(self):
        ranks = lcs_free_ranks(CyclicFactorization((0, 0)), 4)
        assert ranks.ranks == (2, 1, 2, 3)

    def test_finite_cyclic_is_abelian(self):
        ranks = lcs_free_ranks(CyclicFactorization((2,)), 6)
        assert ranks.ranks == (0,) * 6

    def test_trivial_group(self):
        assert lcs_free_ranks(CyclicFactorization(()), 3).ranks == (0, 0, 0)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            lcs_free_ranks(CyclicFactorization((0,)), 8, order=4)
        with pytest.raises(NonPositive):
            lcs_free_ranks(CyclicFactorization((0,)), 0)

    def test_agrees_with_witt_on_free_inputs(self):
        for m in range(1, 5):
            ranks = lcs_free_ranks(CyclicFactorization((0,) * m), 8, order=16)
            for n in range(2, 9):
                assert ranks.r(n) == witt_rank(m, n)

    def test_matches_series_oracle_with_finite_factors(self):
        rng = random.Random(89)
        for _ in range(220):
            g = random_mixed_factorization(rng)
            max_n = rng.randint(1, 12)
            order = rng.randint(max_n, 24)
            got = lcs_free_ranks(g, max_n, order=order).ranks
            assert got == lcs_ranks_oracle(g.orders, max_n, order), g

    def test_r1_formula_for_graphs(self):
        rng = random.Random(67)
        for _ in range(60):
            K = random_connected_graph(rng)
            K = K.with_tree(random_spanning_tree(K, rng))
            ranks = lcs_free_ranks(classify(K), 1)
            free_rank = len(K.edges) - len(K.vertices) + 1
            zero_tree_edges = sum(
                1 for a, b, w in K.edges if (a, b) in set(K.tree) and w == 0
            )
            assert ranks.r(1) == free_rank + zero_tree_edges


class TestWittRank:
    def test_examples(self):
        assert witt_rank(2, 2) == 1
        assert witt_rank(3, 3) == 8
        assert witt_rank(1, 5) == 0
        assert witt_rank(4, 1) == 4
        assert witt_rank(0, 3) == 0

    def test_domain(self):
        with pytest.raises(NonPositive):
            witt_rank(2, 0)


class TestModuleProperties:
    def test_sign_flip_invariance(self):
        check_sign_flip_invariance(random.Random(71), 60)

    def test_all_pm1_reduction(self):
        check_all_pm1_reduction(random.Random(73), 60)

    def test_equal_weight_tree_independence(self):
        check_equal_weight_tree_independence(random.Random(79), 40)

    def test_relabeling_invariance(self):
        check_relabel_invariance(random.Random(83), 60)
