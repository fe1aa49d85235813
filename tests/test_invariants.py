import heapq
import random
import types

import pytest
from hypothesis import given, settings

from wfg.complexes import WeightedComplex, complex_from_json
from wfg.errors import (
    ConditionFailed,
    HasTriangles,
    MissingTree,
    NonPositive,
    ZeroWeightEdge,
)
from wfg import exact
from wfg.analysis import Filtration, analyze_filtration
from wfg.exact import AbelianGroup, IntegerMatrix
from wfg.presentation import abelianized_group, abelianized_relation_matrix, present
from wfg.vankampen import amalgamated_presentation, verify_van_kampen
from wfg.invariants import (
    CyclicFactorization,
    abelianization,
    classify,
    lcs_free_ranks,
    normalize_factorization,
    satisfies_exactly_two,
    weighted_homology_graph,
    witt_rank,
)

from helpers import (
    COPRIME_BASE_WEIGHTS,
    big_weight_grid,
    check_all_pm1_reduction,
    check_equal_weight_tree_independence,
    check_realize_roundtrip,
    check_relabel_invariance,
    check_sign_flip_invariance,
    classify_oracle,
    complexes,
    complexes_with_trees,
    coned_grid,
    dense_abelian_group,
    dense_homology,
    full_base_h0,
    grid_skeleton,
    h0_presentation,
    homology_graphs,
    lcs_ranks_oracle,
    load_figure,
    mobius_grid,
    mobius_oracle,
    random_connected_graph,
    random_mixed_factorization,
    random_spanning_tree,
    realize,
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
        assert CyclicFactorization((3, False, 2)).orders == (0, 2, 3)
        assert all(type(m) is int for m in CyclicFactorization((False, True + 2)).orders)
        # operator.index, not int: 3.0 is no order.
        with pytest.raises(TypeError):
            CyclicFactorization((3.0,))

    @pytest.mark.parametrize("build, args", [
        (AbelianGroup, (1.5,)),
        (AbelianGroup, (1, (2.9,))),
        (AbelianGroup.from_cyclic_orders, ([2.9, "3"],)),
        (normalize_factorization, ([2.5],)),
        (CyclicFactorization, ((3.0, 2.7),)),
    ], ids=["free-rank", "torsion", "cyclic-orders", "normalize", "factorization"])
    def test_non_integers_rejected(self, build, args):
        # int() would truncate: Z^1.5, Z ⊕ Z/2, Z/6, Z/2 and Z/2 * Z/3.
        with pytest.raises(TypeError):
            build(*args)
        assert AbelianGroup(True, (False + 2,)) == AbelianGroup(1, (2,))


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
            assert abelianization(K) == AbelianGroup.from_cyclic_orders(classify(K).orders)


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

    @pytest.mark.parametrize("edges, message", [
        (((0, 3, 2), (1, 2, 3)), r"^edge #0: endpoints \(0,3\) out of range$"),
        (((0, 1, 2), (1, 3, 3)), r"^edge #1: endpoints \(1,3\) out of range$"),
    ])
    def test_edge_to_a_missing_vertex_rejected(self, edges, message):
        # An edge (a, 3) on three vertices would name no generator of H0;
        # the constructor refuses it, so no complex ever carries one.
        with pytest.raises(ValueError, match=message):
            WeightedComplex(("a", "b", "c"), edges)

    def test_zero_weight_rejected(self):
        K = with_weights(FIGURE1, lambda a, b, w: 0 if (a, b) == (0, 1) else w)
        with pytest.raises(ZeroWeightEdge):
            weighted_homology_graph(K)


class TestSparseKernelOnGrids:
    """Grids fill in under elimination and make pivot order and entry
    growth matter, which small random matrices do not; the dense Smith
    form is the oracle."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_triangulated_grid(self, k):
        rng = random.Random(k)
        for _ in range(3):
            K = triangulated_grid(rng, k)
            A = abelianized_relation_matrix(present(K))
            assert abelianization(K) == dense_abelian_group(A)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_skeleton_homology(self, k):
        rng = random.Random(k)
        for _ in range(3):
            K = grid_skeleton(rng, k)
            assert weighted_homology_graph(K) == dense_homology(K)

    @pytest.mark.parametrize("k", (2, 4))
    def test_split_grid_cover(self, k):
        rng = random.Random(k)
        for _ in range(3):
            spec = split_grid_cover(rng, k)
            report = verify_van_kampen(spec)
            assert report.hypotheses_ok and report.abelianizations_equal
            A = abelianized_relation_matrix(amalgamated_presentation(spec))
            assert report.abelianization_amalgamated == dense_abelian_group(A)
            A = abelianized_relation_matrix(present(spec.L))
            assert report.abelianization_direct == dense_abelian_group(A)

    @pytest.mark.parametrize("k", range(2, 5))
    def test_big_weight_grid(self, k):
        # abelianization(K) takes the certified path; the kernel gets the
        # same matrix, so the dense form checks both.
        K = big_weight_grid(random.Random(k), k)
        A = abelianized_relation_matrix(present(K))
        group = dense_abelian_group(A)
        assert abelianization(K) == group
        assert exact.abelian_group_from_matrix(A) == group

    @pytest.mark.parametrize("grid, k, high", [(mobius_grid, k, 9) for k in range(3, 6)]
                             + [(coned_grid, k, 9) for k in range(2, 5)]
                             + [(mobius_grid, 3, 10 ** 6), (coned_grid, 2, 10 ** 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_uncertified_grid(self, grid, k, high, seed):
        # The only presentations the kernel gets from the verbs are those
        # the closed form cannot certify; the Smith form does not depend
        # on pivot order, so the kernel must give the dense form's group.
        # The grids draw weights 2..9; a larger high draws them again from
        # 2..high, where the entries grow to hundreds of bits.
        K = grid(random.Random(seed), k)
        if high > 9:
            rng = random.Random(100 + seed)
            K = with_weights(K, lambda a, b, w: rng.randint(2, high))
        A = abelianized_relation_matrix(present(K))
        assert exact.abelian_group_from_matrix(A) == dense_abelian_group(A)

    def test_heap_pushes_pinned(self, monkeypatch):
        """The heap holds one key per row, built from that row alone, and a
        step pushes keys only for the rows it changed: 1,963 pushes on the
        skeleton's H0 relators below and 4,325 on the big-weight grid's
        relation matrix.  A push count is not a time proxy: the kernel's
        time goes to updating entries."""
        pushes = []

        def heappush(heap, item):
            pushes.append(item)
            heapq.heappush(heap, item)

        counting = types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop,
                                         heapify=heapq.heapify)
        monkeypatch.setattr(exact, "heapq", counting)
        abelianized_group(h0_presentation(grid_skeleton(random.Random(8), 8)))
        assert 0 < len(pushes) <= 2_000
        pushes.clear()
        K = big_weight_grid(random.Random(5), 6)
        exact.abelian_group_from_matrix(abelianized_relation_matrix(present(K)))
        assert 0 < len(pushes) <= 4_400

    def test_no_library_path_runs_the_dense_form(self, monkeypatch):
        def refuse(A):
            raise AssertionError("dense Smith form called")

        builds = []
        dense = IntegerMatrix.entries.func
        monkeypatch.setattr(exact, "smith_normal_form", refuse)
        monkeypatch.setattr(IntegerMatrix, "entries",
                            property(lambda A: builds.append(A) or dense(A)))
        rng = random.Random(0)
        abelianization(triangulated_grid(rng, 3))
        verify_van_kampen(split_grid_cover(rng, 2))
        analysis = analyze_filtration(Filtration((FIGURE3, FIGURE3), {}), fallback_abelian=True)
        assert analysis.abelian_fallback_stages == (0, 1)
        assert builds == []

    def test_homology_runs_no_kernel(self, monkeypatch):
        K = grid_skeleton(random.Random(0), 3)
        expected = dense_homology(K)

        def refuse(A):
            raise AssertionError("invariant-factor kernel or dense Smith form called")

        monkeypatch.setattr(exact, "abelian_group_from_matrix", refuse)
        monkeypatch.setattr(exact, "smith_normal_form", refuse)
        assert weighted_homology_graph(K) == expected

    def test_certified_grids_run_no_kernel(self, monkeypatch):
        rng = random.Random(0)
        grids = [triangulated_grid(rng, 4), big_weight_grid(rng, 4)]
        spec = split_grid_cover(rng, 4)
        expected = [exact.abelian_group_from_matrix(abelianized_relation_matrix(present(K)))
                    for K in grids]
        glued = exact.abelian_group_from_matrix(
            abelianized_relation_matrix(amalgamated_presentation(spec)))

        def refuse(A):
            raise AssertionError("invariant-factor kernel or dense Smith form called")

        monkeypatch.setattr(exact, "abelian_group_from_matrix", refuse)
        monkeypatch.setattr(exact, "smith_normal_form", refuse)
        assert [abelianization(K) for K in grids] == expected
        report = verify_van_kampen(spec)
        assert report.abelianization_amalgamated == report.abelianization_direct == glued


class TestClosedFormH0:
    """H0 from minimum spanning forests against the sparse kernel and the
    dense Smith form of the boundary, on graphs that may be disconnected."""

    @settings(max_examples=300)
    @given(homology_graphs())
    def test_matches_kernel_and_dense_form(self, K):
        homology = weighted_homology_graph(K)
        assert homology.h0 == abelianized_group(h0_presentation(K))
        assert homology == dense_homology(K)

    @settings(max_examples=300)
    @given(homology_graphs(weights=COPRIME_BASE_WEIGHTS))
    def test_base_of_forest_primes_matches_full_base(self, K):
        assert weighted_homology_graph(K).h0 == full_base_h0(len(K.vertices), K.edges)

    def test_shared_part(self):
        assert exact._shared_part(2 ** 5 * 3 * 7 ** 2, 6) == 2 ** 5 * 3
        assert exact._shared_part(35, 6) == 1
        assert exact._shared_part(12, 1) == 1

    def test_shared_factors(self):
        # A triangle with weights 4, 6, 9: d1 = gcd = 1, d1*d2 = gcd of the
        # two-edge products 24, 36, 54 = 6, so H0 = Z + Z/6.
        K = WeightedComplex(("a", "b", "c"), ((0, 1, 4), (0, 2, 6), (1, 2, -9)))
        assert weighted_homology_graph(K).h0 == AbelianGroup(1, (6,))

    def test_components_are_free(self):
        K = WeightedComplex(("a", "b", "c", "d", "e"), ((0, 1, 12), (2, 3, 2 ** 64)))
        assert weighted_homology_graph(K).h0 == AbelianGroup(3, (4, 3 * 2 ** 64))


class TestLcsFreeRanks:
    def test_two_free_one_torsion(self):
        assert lcs_free_ranks(CyclicFactorization((0, 0, 2)), 2) == (2, 1)

    def test_free_group_of_rank_two(self):
        assert lcs_free_ranks(CyclicFactorization((0, 0)), 4) == (2, 1, 2, 3)

    def test_finite_cyclic_is_abelian(self):
        assert lcs_free_ranks(CyclicFactorization((2,)), 6) == (0,) * 6

    def test_trivial_group(self):
        assert lcs_free_ranks(CyclicFactorization(()), 3) == (0, 0, 0)

    def test_truncation_guard(self):
        with pytest.raises(NonPositive):
            lcs_free_ranks(CyclicFactorization((0,)), 0)

    def test_agrees_with_witt_on_free_inputs(self):
        for m in range(1, 5):
            ranks = lcs_free_ranks(CyclicFactorization((0,) * m), 8)
            for n in range(2, 9):
                assert ranks[n - 1] == witt_rank(m, n)

    def test_matches_series_oracle_with_finite_factors(self):
        rng = random.Random(89)
        for _ in range(220):
            g = random_mixed_factorization(rng)
            max_n = rng.randint(1, 12)
            order = rng.randint(max_n, 24)
            got = lcs_free_ranks(g, max_n)
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
            assert ranks == (free_rank + zero_tree_edges,)


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
        with pytest.raises(NonPositive):
            witt_rank(-1, 3)

    def test_against_divisor_sum_with_trial_division_oracle(self):
        mu = [0] + [mobius_oracle(d) for d in range(1, 600)]
        for m in (0, 1, 2, 3, 7, 10 ** 6):
            for n in range(1, 600):
                total = sum(mu[d] * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
                assert witt_rank(m, n) * n == total, (m, n)


class TestModuleProperties:
    def test_sign_flip_invariance(self):
        check_sign_flip_invariance(random.Random(71), 60)

    def test_all_pm1_reduction(self):
        check_all_pm1_reduction(random.Random(73), 60)

    def test_equal_weight_tree_independence(self):
        check_equal_weight_tree_independence(random.Random(79), 40)

    def test_relabeling_invariance(self):
        check_relabel_invariance(random.Random(83), 60)
