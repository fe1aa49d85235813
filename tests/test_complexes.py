import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfg.complexes import (
    TREE_STRATEGIES,
    WeightedComplex,
    _tree_violations,
    complex_from_json,
    complex_to_json,
    compute_maximal_tree,
    is_weighted_subcomplex,
    validate,
)
from wfg.analysis import filtration_from_json
from wfg.errors import MissingTree, NotConnected, SchemaError
from wfg.vankampen import cover_from_json

from helpers import (
    complexes,
    load_figure,
    raw_document,
    random_connected_graph,
    random_spanning_tree,
    relabel,
    subcomplex_pairs,
    weighted_subcomplex_oracle,
)

FIGURE1 = complex_from_json(load_figure("figure1.json"))


def rules_of(report):
    return {rule for rule, _ in report.violations}


def tree_rules(K, edges):
    """The rules an edge set breaks as a maximal tree of K, in report order."""
    return [rule for rule, _ in _tree_violations(len(K.vertices), set(K.edge_keys), list(edges))]


class TestConstruction:
    @pytest.mark.parametrize("bad", [2.5, 2.0, "7"])
    def test_non_integer_values_rejected(self, bad):
        # int() would read a weight of 2.5 as 2 (classify Z/2, validate ok)
        # and the string "7" as 7.
        for edges, triangles, tree in (
            (((0, 1, bad), (1, 2, 1), (0, 2, 1)), (), None),
            (((0, 1, 1), (1, 2, 1), (0, 2, 1)), ((0, 1, bad),), None),
            (((0, 1, 1), (1, 2, 1), (0, 2, 1)), (), ((0, bad), (1, 2))),
        ):
            with pytest.raises(TypeError):
                WeightedComplex(("a", "b", "c"), edges, triangles, tree)

    def test_bools_become_ints(self):
        K = WeightedComplex(("a", "b"), ((False, True, True),), (), ((False, True),))
        assert K.edges == ((0, 1, 1),) and K.tree == ((0, 1),)
        assert all(type(x) is int for x in K.edges[0] + K.tree[0])


class TestValidate:
    def test_figure1_is_valid(self):
        assert validate(FIGURE1).ok

    def test_single_vertex_is_valid(self):
        assert validate(WeightedComplex(("v0",), ())).ok

    def test_face_closure_violation(self):
        K = WeightedComplex(
            ("v0", "v1", "v2"),
            ((0, 1, 1), (1, 2, 1)),
            ((0, 1, 2),),
        )
        report = validate(K)
        assert not report.ok
        assert "face-closure" in rules_of(report)

    def test_disconnected_flagged(self):
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 1),))
        assert "connected" in rules_of(validate(K))

    def test_bad_edge_order_and_index(self):
        # The constructor refuses the first bad edge, numbered by position.
        with pytest.raises(ValueError, match=r"^edge #0: endpoints \(1,0\) must satisfy a < b$"):
            WeightedComplex(("v0", "v1"), ((1, 0, 1), (0, 5, 2)))
        with pytest.raises(ValueError, match=r"^edge #1: endpoints \(0,5\) out of range$"):
            WeightedComplex(("v0", "v1"), ((0, 1, 1), (0, 5, 2)))

    def test_conflicting_duplicate_edges(self):
        # A repeated key is refused whatever the two weights.
        for weights in ((1, 2), (1, 1)):
            with pytest.raises(ValueError, match=r"^duplicate edge \(0,1\)$"):
                WeightedComplex(("v0", "v1"), tuple((0, 1, w) for w in weights))

    def test_tree_rules(self):
        base = (("v0", "v1", "v2"), ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
        not_spanning = WeightedComplex(*base, tree=((0, 1),))
        assert "tree-not-spanning" in rules_of(validate(not_spanning))
        cyclic = WeightedComplex(*base, tree=((0, 1), (0, 2), (1, 2)))
        assert "tree-cycle" in rules_of(validate(cyclic))
        with pytest.raises(ValueError, match=r"^tree edge #0: \(0,2\) is not an edge$"):
            WeightedComplex(("v0", "v1"), ((0, 1, 1),), tree=((0, 2),))
        # A tree handed in from outside the complex (discriminate_trees)
        # may still name a non-edge; (0, 1) alone spans, so the unknown
        # edge is the only violation.
        assert tree_rules(WeightedComplex(("v0", "v1"), ((0, 1, 1),)),
                          ((0, 1), (0, 2))) == ["tree-unknown-edge"]

    def test_cyclic_tree_reaching_every_vertex_is_only_a_cycle(self):
        # All three edges of a triangle reach every vertex: one violation.
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 1), (0, 2, 1), (1, 2, 1)),
                            tree=((0, 1), (0, 2), (1, 2)))
        assert validate(K).violations == (("tree-cycle", "tree edges contain a cycle"),)
        assert tree_rules(K, K.tree) == ["tree-cycle"]

    def test_every_violation_reported_at_once(self):
        with pytest.raises(ValueError, match="^vertex labels must be distinct$"):
            WeightedComplex(("v0", "v0"), ((1, 0, 1),))
        # A well-formed complex breaking all four rules validate still checks.
        K = WeightedComplex(("v0", "v1", "v2", "v3"), ((0, 1, 1), (0, 2, 1), (1, 2, 1)),
                            ((0, 1, 3),), tree=((0, 1), (0, 2), (1, 2)))
        assert rules_of(validate(K)) == {
            "face-closure", "connected", "tree-cycle", "tree-not-spanning"}


class TestComputeMaximalTree:
    def test_tree_of_a_path_is_itself(self):
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 1), (1, 2, 1)))
        assert compute_maximal_tree(K, "bfs") == ((0, 1), (1, 2))

    def test_bfs_on_four_cycle(self):
        K = WeightedComplex(
            ("v0", "v1", "v2", "v3"),
            ((0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)),
        )
        assert compute_maximal_tree(K, "bfs") == ((0, 1), (0, 3), (1, 2))

    def test_kruskal_min_picks_smallest_weights(self):
        K = WeightedComplex(
            ("v0", "v1", "v2"),
            ((0, 1, 2), (0, 2, 5), (1, 2, -3)),
        )
        assert compute_maximal_tree(K, "kruskal-min") == ((0, 1), (1, 2))
        assert compute_maximal_tree(K, "kruskal-max") == ((0, 2), (1, 2))

    def test_given_is_not_a_strategy(self):
        # A stored tree is read from ``complex.tree``; no strategy returns it.
        assert "given" not in TREE_STRATEGIES
        with pytest.raises(ValueError):
            compute_maximal_tree(FIGURE1, "given")

    def test_tree_is_sorted_edge_keys(self):
        K = WeightedComplex(("v0", "v1", "v2", "v3"),
                            ((0, 3, 1), (1, 3, 9), (2, 3, 5), (0, 1, 7)))
        for strategy in TREE_STRATEGIES:
            tree = compute_maximal_tree(K, strategy)
            assert type(tree) is tuple and tree == tuple(sorted(tree))
            assert K.with_tree(reversed(tree)).tree == tree

    def test_disconnected_raises(self):
        K = WeightedComplex(("v0", "v1", "v2"), ((0, 1, 1),))
        with pytest.raises(NotConnected):
            compute_maximal_tree(K, "bfs")
        with pytest.raises(NotConnected):
            compute_maximal_tree(K, "kruskal-min")

    def test_no_vertices_raises(self):
        # No vertex, no complex, so no strategy ever sees one.
        with pytest.raises(ValueError, match='^"vertices" must contain at least one vertex$'):
            WeightedComplex((), ())

    def test_all_strategies_give_spanning_trees(self):
        rng = random.Random(31)
        for _ in range(50):
            K = random_connected_graph(rng)
            n = len(K.vertices)
            for strategy in TREE_STRATEGIES:
                tree = compute_maximal_tree(K, strategy)
                assert len(tree) == n - 1
                assert tree_rules(K, tree) == []


class TestRelabel:
    def test_identity(self):
        assert relabel(FIGURE1, [0, 1, 2]) == FIGURE1

    def test_swap_preserves_weight_multiset(self):
        moved = relabel(FIGURE1, [2, 1, 0])
        assert moved.vertices == ("v2", "v1", "v0")
        assert sorted(w for _, _, w in moved.edges) == sorted(
            w for _, _, w in FIGURE1.edges
        )
        assert len(moved.tree) == len(FIGURE1.tree)
        assert validate(moved).ok

    def test_composition(self):
        rng = random.Random(37)
        for _ in range(40):
            K = random_connected_graph(rng)
            K = K.with_tree(random_spanning_tree(K, rng))
            n = len(K.vertices)
            p = list(range(n))
            q = list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            composed = [q[p[i]] for i in range(n)]
            assert relabel(relabel(K, p), q) == relabel(K, composed)

    def test_counts_preserved(self):
        rng = random.Random(41)
        for _ in range(30):
            K = random_connected_graph(rng)
            perm = list(range(len(K.vertices)))
            rng.shuffle(perm)
            moved = relabel(K, perm)
            assert len(moved.edges) == len(K.edges)
            assert len(moved.triangles) == len(K.triangles)
            assert validate(moved).ok == validate(K).ok


class TestWeightedSubcomplex:
    def test_reflexive(self):
        assert is_weighted_subcomplex(FIGURE1, FIGURE1)

    def test_figure4_k0_inside_k1(self):
        doc = load_figure("figure4-cover.json")
        K1 = complex_from_json(doc["K1"])
        K0 = complex_from_json(doc["K0"])
        assert is_weighted_subcomplex(K0, K1)
        assert not is_weighted_subcomplex(K1, K0)

    def test_weight_mismatch(self):
        other = WeightedComplex(
            FIGURE1.vertices,
            tuple((a, b, w + (1 if (a, b) == (0, 1) else 0)) for a, b, w in FIGURE1.edges),
            (),
            FIGURE1.tree,
        )
        assert not is_weighted_subcomplex(FIGURE1, other)

    def test_order_must_be_preserved(self):
        inner = WeightedComplex(("v1", "v0"), ((0, 1, 2),), (), ((0, 1),))
        outer = WeightedComplex(
            ("v0", "v1"), ((0, 1, 2),), (), ((0, 1),)
        )
        assert not is_weighted_subcomplex(inner, outer)

    def test_missing_tree_raises(self):
        bare = WeightedComplex(FIGURE1.vertices, FIGURE1.edges)
        with pytest.raises(MissingTree):
            is_weighted_subcomplex(bare, FIGURE1)
        assert is_weighted_subcomplex(bare, FIGURE1, check_tree=False)

    @settings(max_examples=300)
    @given(subcomplex_pairs(), st.booleans())
    def test_matches_embedding_oracle(self, pair, check_tree):
        """The label-view check agrees with the embedding one, both ways
        round, and both raise MissingTree on the same pairs."""
        for inner, outer in (pair, pair[::-1]):
            if check_tree and (inner.tree is None or outer.tree is None):
                with pytest.raises(MissingTree):
                    is_weighted_subcomplex(inner, outer)
                with pytest.raises(MissingTree):
                    weighted_subcomplex_oracle(inner, outer)
                continue
            assert (is_weighted_subcomplex(inner, outer, check_tree)
                    == weighted_subcomplex_oracle(inner, outer, check_tree))


class TestJson:
    def test_round_trip(self):
        doc = complex_to_json(FIGURE1)
        assert complex_from_json(doc) == FIGURE1
        assert complex_from_json(json.loads(json.dumps(doc))) == FIGURE1

    def test_edge_order_error_names_the_edge(self):
        doc = {"vertices": ["v0", "v1"], "edges": [{"a": 1, "b": 0, "w": 1}]}
        with pytest.raises(SchemaError, match=r"edge #0.*\(1,0\)"):
            complex_from_json(doc)

    def test_missing_keys(self):
        with pytest.raises(SchemaError, match="vertices"):
            complex_from_json({"edges": []})
        with pytest.raises(SchemaError, match='edge #0: missing key "w"'):
            complex_from_json({"vertices": ["v0", "v1"], "edges": [{"a": 0, "b": 1}]})

    def test_dimension_cap_message(self):
        doc = {
            "vertices": ["v0", "v1", "v2", "v3"],
            "edges": [],
            "triangles": [[0, 1, 2, 3]],
        }
        with pytest.raises(SchemaError, match="dimension is capped at 2"):
            complex_from_json(doc)

    def test_duplicate_edge_rejected(self):
        doc = {
            "vertices": ["v0", "v1"],
            "edges": [{"a": 0, "b": 1, "w": 1}, {"a": 0, "b": 1, "w": 2}],
        }
        with pytest.raises(SchemaError, match="duplicate edge"):
            complex_from_json(doc)

    def test_tree_edge_must_exist(self):
        doc = {
            "vertices": ["v0", "v1", "v2"],
            "edges": [{"a": 0, "b": 1, "w": 1}, {"a": 1, "b": 2, "w": 1}],
            "tree": [[0, 2]],
        }
        with pytest.raises(SchemaError, match="is not an edge"):
            complex_from_json(doc)


class TestRefusals:
    """The constructor and the parser refuse a malformed complex with one
    message: the parser checks types and shapes, then builds the complex."""

    TRIANGLE = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    # (vertices, edges, triangles, tree) per refusal, and the message.
    CASES = {
        "no-vertices": (([], [], [], None),
                        '"vertices" must contain at least one vertex'),
        "vertex-duplicate": ((["a", "b", "a"], [], [], None),
                             "vertex labels must be distinct"),
        "edge-range": ((["a", "b"], [(0, 1, 1), (-1, 1, 2)], [], None),
                       "edge #1: endpoints (-1,1) out of range"),
        "edge-order": ((["a", "b"], [(1, 0, 1)], [], None),
                       "edge #0: endpoints (1,0) must satisfy a < b"),
        "edge-duplicate": ((["a", "b", "c"], TRIANGLE + [(0, 2, 1)], [], None),
                           "duplicate edge (0,2)"),
        "triangle-range": ((["a", "b", "c"], TRIANGLE, [(0, 1, 2), (0, 1, 3)], None),
                           "triangle #1: corners (0,1,3) out of range"),
        "triangle-order": ((["a", "b", "c"], TRIANGLE, [(0, 2, 1)], None),
                           "triangle #0: corners (0,2,1) must satisfy a < v < b"),
        "tree-not-an-edge": ((["a", "b", "c"], TRIANGLE[:2], [], [(0, 1), (1, 2)]),
                             "tree edge #1: (1,2) is not an edge"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parser_and_constructor_agree(self, case):
        values, message = self.CASES[case]
        with pytest.raises(ValueError) as built:
            WeightedComplex(*values)
        with pytest.raises(SchemaError) as parsed:
            complex_from_json(raw_document(*values))
        assert str(parsed.value) == str(built.value) == message

    def test_stage_and_member_prefixes(self):
        values, message = self.CASES["edge-duplicate"]
        good, bad = complex_to_json(FIGURE1), raw_document(*values)
        with pytest.raises(SchemaError, match=f"^stage 1: {re.escape(message)}$"):
            filtration_from_json({"stages": [good, bad]})
        with pytest.raises(SchemaError, match=f"^K1: {re.escape(message)}$"):
            cover_from_json({"L": good, "K1": bad, "K2": good, "K0": good})

    def test_type_faults_come_before_structure(self):
        # Edge #0 is out of range, but edge #1's missing weight is named:
        # every type check runs before the constructor's checks.
        doc = {"vertices": ["a", "b"],
               "edges": [{"a": 0, "b": 5, "w": 1}, {"a": 0, "b": 1}]}
        with pytest.raises(SchemaError, match='^edge #1: missing key "w"$'):
            complex_from_json(doc)


@given(complexes())
def test_json_round_trip(K):
    assert complex_from_json(complex_to_json(K)) == K
