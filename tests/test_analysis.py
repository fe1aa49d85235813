import contextlib
import gc
import io
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings

from wfg import analysis
from wfg.analysis import (
    BirthDeathEvent,
    Filtration,
    analyze_filtration,
    discriminate_trees,
    enumerate_hamiltonian_trees,
    filtration_from_json,
)
from wfg.cli import main
from wfg.complexes import WeightedComplex, complex_from_json, complex_to_json, validate
from wfg.errors import BadTree, ConditionFailed, NotAGraph, NotNested, TooLarge
from wfg.invariants import abelianization, classify

from helpers import (
    check_filtration_conservation,
    complexes_with_trees,
    discriminate_trees_oracle,
    hamiltonian_trees_oracle,
    load_figure,
    weighted_graphs,
)

FIGURE5 = filtration_from_json(load_figure("figure5-filtration.json"))
PENTAGON = complex_from_json(load_figure("figure6-pentagon.json"))
HEXAGON = complex_from_json(load_figure("figure6-hexagon.json"))


class TestAnalyzeFiltration:
    def test_figure5_event_stream(self):
        analysis = analyze_filtration(FIGURE5)
        assert [str(f) for f in analysis.stage_factors] == [
            "Z * Z/2 * Z/2",
            "Z * Z * Z/2 * Z/2 * Z/3 * Z/3",
            "Z * Z/2 * Z/2 * Z/2 * Z/3 * Z/3",
        ]
        assert analysis.events == (
            BirthDeathEvent(1, "birth", 0, "unknown"),
            BirthDeathEvent(1, "birth", 3, "right"),
            BirthDeathEvent(1, "birth", 3, "right"),
            BirthDeathEvent(2, "death", 0, "unknown"),
            BirthDeathEvent(2, "birth", 2, "left"),
        )
        assert analysis.abelian_fallback_stages == ()

    def test_constant_filtration_has_no_events(self):
        stage = FIGURE5.stages[0]
        analysis = analyze_filtration(Filtration((stage, stage, stage), {}))
        assert analysis.events == ()

    def test_single_stage(self):
        analysis = analyze_filtration(Filtration((FIGURE5.stages[0],), {}))
        assert analysis.events == ()

    def test_stages_must_nest(self):
        with pytest.raises(NotNested):
            analyze_filtration(Filtration((FIGURE5.stages[1], FIGURE5.stages[0]), {}))

    def test_condition_failure_reports_stage(self):
        bad_stage = complex_from_json(load_figure("figure3.json"))
        f = Filtration((bad_stage, bad_stage), {})
        with pytest.raises(ConditionFailed) as err:
            analyze_filtration(f)
        assert err.value.stage == 0
        assert "stage 0" in str(err.value)

    def test_abelian_fallback(self):
        bad_stage = complex_from_json(load_figure("figure3.json"))
        f = Filtration((bad_stage, bad_stage), {})
        analysis = analyze_filtration(f, fallback_abelian=True)
        assert analysis.abelian_fallback_stages == (0, 1)
        # Invariant factors of Z^2 + (Z/2)^5, as a factor multiset.
        assert analysis.stage_factors[0].orders == (0, 0, 2, 2, 2, 2, 2)
        assert analysis.events == ()

    def test_missing_stage_trees_get_bfs(self):
        bare = WeightedComplex(
            FIGURE5.stages[0].vertices, FIGURE5.stages[0].edges
        )
        analysis = analyze_filtration(Filtration((bare,), {}))
        assert analysis.stage_factors[0].orders == (0, 2, 2)

    def test_conservation_on_random_filtrations(self):
        check_filtration_conservation(random.Random(97), 60)


class TestEnumerateHamiltonianTrees:
    def test_path_graph_has_one(self):
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 1), (1, 2, 1)))
        trees = enumerate_hamiltonian_trees(K)
        assert trees == [((0, 1), (1, 2))]

    def test_triangle_graph_has_three(self):
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
        trees = enumerate_hamiltonian_trees(K)
        assert trees == [
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
        ]

    def test_four_cycle_has_four(self):
        K = WeightedComplex(
            ("v0", "v1", "v2", "v3"),
            ((0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)),
        )
        assert len(enumerate_hamiltonian_trees(K)) == 4

    def test_results_are_spanning_paths(self):
        K = HEXAGON
        for tree in enumerate_hamiltonian_trees(K):
            assert validate(K.with_tree(tree)).ok
            degree = {}
            for a, b in tree:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert max(degree.values()) <= 2

    def test_rejects_non_graphs_and_large_inputs(self):
        filled = complex_from_json(load_figure("figure2.json"))
        with pytest.raises(NotAGraph):
            enumerate_hamiltonian_trees(filled)
        n = 15
        path = WeightedComplex(
            tuple(f"v{i}" for i in range(n)),
            tuple((i, i + 1, 1) for i in range(n - 1)),
        )
        with pytest.raises(TooLarge):
            enumerate_hamiltonian_trees(path)


    def test_budget_bounds_the_search(self, monkeypatch):
        # K7 visits 7 + 7*6 + ... + 7! = 13,699 partial paths.
        K7 = WeightedComplex(
            tuple(f"v{i}" for i in range(7)),
            tuple((a, b, 1) for a in range(7) for b in range(a + 1, 7)),
        )
        monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", 13_699)
        assert len(enumerate_hamiltonian_trees(K7)) == 2520
        monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", 13_698)
        with pytest.raises(TooLarge, match="13698"):
            enumerate_hamiltonian_trees(K7)

    def test_budget_counts_dead_ends(self, monkeypatch):
        # Unlike K7, the Petersen graph's search backtracks out of dead
        # ends: 120 trees from 2,740 partial paths.
        keys = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        petersen = WeightedComplex(tuple(f"v{i}" for i in range(10)),
                                   tuple((min(e), max(e), 1) for e in keys))
        monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", 2_740)
        assert len(enumerate_hamiltonian_trees(petersen)) == 120
        monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", 2_739)
        with pytest.raises(TooLarge, match="2740"):
            enumerate_hamiltonian_trees(petersen)

    def test_matches_recursive_oracle(self, monkeypatch):
        # A budget of exactly the oracle's count passes and one less stops
        # at that count, so the partial paths are counted alike too.
        rng = random.Random(606)
        for _ in range(40):
            n = rng.randint(1, 9)
            p = rng.choice((0.25, 0.5, 0.75))
            K = WeightedComplex(
                tuple(f"v{i}" for i in range(n)),
                tuple((a, b, 1) for a, b in itertools.combinations(range(n), 2)
                      if rng.random() < p),
            )
            trees, count = hamiltonian_trees_oracle(K)
            monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", count)
            assert enumerate_hamiltonian_trees(K) == trees
            monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", count - 1)
            with pytest.raises(TooLarge, match=f"stopped at {count} partial"):
                enumerate_hamiltonian_trees(K)

    @given(K=weighted_graphs(max_vertices=9))
    def test_matches_oracle_and_the_verb_matches_discriminate_trees(
            self, K, tmp_path_factory):
        trees, count = hamiltonian_trees_oracle(K)
        with mock.patch.object(analysis, "HAMILTONIAN_PATH_BUDGET", count):
            assert enumerate_hamiltonian_trees(K) == trees
        with mock.patch.object(analysis, "HAMILTONIAN_PATH_BUDGET", count - 1):
            with pytest.raises(TooLarge, match=f"stopped at {count} partial"):
                enumerate_hamiltonian_trees(K)
        # The verb classifies each tree without discriminate_trees.
        path = tmp_path_factory.getbasetemp() / "hamiltonian-graph.json"
        path.write_text(json.dumps(complex_to_json(K)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["hamiltonian", str(path), "--json"]) == 0
        report = discriminate_trees(K, trees)
        got = json.loads(out.getvalue())
        assert got["invariants"] == [str(inv) for inv in report.invariants]
        assert got["distinguishable"] == report.distinguishable

    def test_descending_masks_are_ascending_edge_lists(self):
        # The enumerator sorts trees as edge masks, bit E-1-j for edge j,
        # in reverse: for equal-size edge sets that is the order of their
        # sorted edge keys.
        rng = random.Random(22)
        keys = list(itertools.combinations(range(10), 2))
        for _ in range(300):
            e = rng.randint(1, len(keys))
            size = rng.randint(0, e)
            trees = [tuple(sorted(rng.sample(keys[:e], size))) for _ in range(rng.randint(2, 30))]
            mask = {t: sum(1 << (e - 1 - keys.index(k)) for k in t) for t in set(trees)}
            assert sorted(mask, key=mask.get, reverse=True) == sorted(mask)

    def test_complete_graph_at_the_vertex_limit_is_past_the_budget(self):
        n = analysis.HAMILTONIAN_VERTEX_LIMIT
        K = WeightedComplex(tuple(f"v{i}" for i in range(n)),
                            tuple((a, b, 1) for a, b in itertools.combinations(range(n), 2)))
        with pytest.raises(TooLarge) as err:
            enumerate_hamiltonian_trees(K)
        assert str(err.value) == ("Hamiltonian enumeration stopped at 2000001 partial "
                                  "paths, past the budget of 2000000")

    def test_leaves_no_cyclic_garbage(self, monkeypatch):
        # The search state is freed by reference counting as soon as the
        # enumeration returns or raises; a reference cycle (a closure that
        # calls itself) would keep it until the cyclic collector runs.
        n = 14
        keys = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 5) for i in range(0, n - 5, 2)]
        K = WeightedComplex(tuple(f"v{i}" for i in range(n)),
                            tuple((min(e), max(e), 2) for e in keys))
        gc.collect()
        gc.disable()  # so that no automatic collection hides a cycle
        try:
            assert enumerate_hamiltonian_trees(K)
            monkeypatch.setattr(analysis, "HAMILTONIAN_PATH_BUDGET", 100)
            with pytest.raises(TooLarge):
                enumerate_hamiltonian_trees(K)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDiscriminateTrees:
    def test_distinct_weights_distinguish_trees(self):
        K = WeightedComplex(
            ("v0", "v1", "v2"), ((0, 1, 2), (0, 2, 5), (1, 2, 3))
        )
        trees = enumerate_hamiltonian_trees(K)
        report = discriminate_trees(K, trees)
        assert report.distinguishable
        assert not report.used_abelianization
        factor_sets = sorted(inv.orders for inv in report.invariants)
        assert factor_sets == [(0, 2, 3), (0, 2, 5), (0, 3, 5)]

    def test_equal_weights_are_indistinguishable(self):
        K = WeightedComplex(
            ("v0", "v1", "v2"), ((0, 1, 7), (0, 2, 7), (1, 2, 7))
        )
        report = discriminate_trees(K, enumerate_hamiltonian_trees(K))
        assert not report.distinguishable

    def test_exactly_two_failure_switches_every_tree_to_abelianization(self):
        K = WeightedComplex(
            ("v0", "v1", "v2", "v3"),
            ((0, 1, 2), (0, 2, 3), (0, 3, 5), (1, 2, 4), (2, 3, 6)),
            ((0, 1, 2),),
        )
        good = ((0, 1), (1, 2), (2, 3))
        bad = ((0, 1), (0, 3), (2, 3))
        report = discriminate_trees(K, [good, bad])
        assert report.used_abelianization
        assert report.invariants == tuple(
            abelianization(K.with_tree(t)) for t in (good, bad)
        )

    def test_accepts_a_generator_of_tuples(self):
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 2), (0, 2, 5), (1, 2, 3)))
        trees = enumerate_hamiltonian_trees(K)
        report = discriminate_trees(K, (t for t in trees))
        assert report.trees == tuple(trees)
        assert report.invariants == discriminate_trees(K, trees).invariants

    def test_single_tree_is_not_distinguishable(self):
        K = WeightedComplex(("v0", "v1"), ((0, 1, 3),))
        report = discriminate_trees(K, [((0, 1),)])
        assert not report.distinguishable

    @settings(max_examples=200)
    @given(case=complexes_with_trees())
    def test_matches_per_tree_oracle(self, case):
        K, trees = case
        report = discriminate_trees(K, trees)
        invariants, used_abelianization = discriminate_trees_oracle(K, trees)
        assert report.invariants == invariants
        assert report.used_abelianization == used_abelianization
        assert report.distinguishable == (len(set(invariants)) > 1)
        assert report.trees == tuple(trees)

    def test_bad_tree_rejected(self):
        with pytest.raises(BadTree):
            discriminate_trees(
                WeightedComplex(("v0", "v1"), ((0, 1, 1),)),
                [()],
            )


class TestFullereneRings:
    def test_pentagon_is_infinite_cyclic(self):
        assert classify(PENTAGON).orders == (0,)

    def test_hexagon_with_double_bonds(self):
        assert classify(HEXAGON).orders == (0, 2, 2, 2)

    def test_rings_are_distinguished(self):
        assert classify(PENTAGON) != classify(HEXAGON)
