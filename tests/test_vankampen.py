import random

import pytest

import wfg.complexes
from wfg.complexes import WeightedComplex, complex_from_json, ensure_tree
from wfg.errors import HypothesesFailed, SchemaError
from wfg.exact import AbelianGroup, IntegerMatrix, abelian_group_from_matrix
from wfg.invariants import classify
from wfg.presentation import abelianized_group
from wfg.record import replace
from wfg.vankampen import (
    CoverSpec,
    amalgamated_presentation,
    check_hypotheses,
    cover_from_json,
    verify_van_kampen,
)

from helpers import (
    BROKEN_COVERS,
    cover_factorization_oracle,
    load_figure,
    random_cover,
    split_grid_cover,
)

COVER = cover_from_json(load_figure("figure4-cover.json"))
COVER_W1 = cover_from_json(load_figure("figure4-cover-w1.json"))


def expected_from_factors(orders):
    """Reduce a free product of cyclic groups to invariant factors by SNF
    of the diagonal relation matrix (independent of from_cyclic_orders)."""
    rows = []
    for i, m in enumerate(orders):
        if m != 0:
            rows.append([m if j == i else 0 for j in range(len(orders))])
    return abelian_group_from_matrix(IntegerMatrix.from_rows(rows, len(orders)))


class TestCheckHypotheses:
    def test_figure4_passes_with_tree_lemma(self):
        report = check_hypotheses(COVER)
        assert report.ok, report.violations

    def test_degenerate_cover(self):
        L = COVER.L
        report = check_hypotheses(CoverSpec(L, L, L, L))
        assert report.ok

    def test_intersection_violation(self):
        doc = load_figure("figure4-cover.json")
        broken = cover_from_json(doc)
        # Shrink K0 to a single shared vertex: K1 and K2 still share v3, v4
        # and the K0 edges, so the intersection condition fails.
        k0 = complex_from_json(
            {
                "vertices": ["v2"],
                "edges": [],
                "triangles": [],
                "tree": [],
            }
        )
        spec = CoverSpec(broken.L, broken.K1, broken.K2, k0)
        report = check_hypotheses(spec)
        assert not report.ok
        assert any(rule == "cover-intersection" for rule, _ in report.violations)


class TestAmalgamatedPresentation:
    def test_figure4_weighted(self):
        p = amalgamated_presentation(COVER)
        # 6 plain edges outside K0 plus primed and double-primed copies of
        # the 3 shared edges.
        assert len(p.generators) == 6 + 3 + 3
        ab = abelianized_group(p)
        assert ab == AbelianGroup(2, (2, 2, 12, 840))
        assert ab == abelianized_group(amalgamated_presentation(COVER))

    def test_degenerate_cover_matches_direct(self):
        from wfg.presentation import present

        L = COVER.L
        p = amalgamated_presentation(CoverSpec(L, L, L, L))
        assert abelianized_group(p) == abelianized_group(present(L))

    def test_one_sided_cover_matches_direct(self):
        from wfg.presentation import present

        spec = CoverSpec(COVER.K1, COVER.K1, COVER.K0, COVER.K0)
        p = amalgamated_presentation(spec)
        assert abelianized_group(p) == abelianized_group(present(COVER.K1))

    def test_figure4_literal(self):
        p = amalgamated_presentation(COVER)
        assert p.generators == (
            "g01", "g02", "g12", "g45", "g46", "g56",
            "g23'", "g24'", "g34'", "g23''", "g24''", "g34''",
        )
        assert p.relators == (
            ((6, 4),), ((8, 5),), ((7, -6), (6, 4), (8, 5)), ((0, 2),), ((2, 3),),
            ((9, 4),), ((11, 5),), ((10, -6), (9, 4), (11, 5)), ((4, 7),), ((5, 8),),
            ((6, 1), (9, -1)), ((7, 1), (10, -1)), ((8, 1), (11, -1)),
        )

    def test_raises_on_broken_cover(self):
        spec = CoverSpec(COVER.L, COVER.K1, COVER.K2, COVER.K1)
        with pytest.raises(HypothesesFailed):
            amalgamated_presentation(spec)


class TestVerifyVanKampen:
    def test_figure4_weighted_instance(self):
        report = verify_van_kampen(COVER)
        assert report.hypotheses_ok
        assert report.tree_union_ok and report.tree_intersection_ok
        assert report.abelianizations_equal
        expected = expected_from_factors([0, 0, 2, 3, 4, 5, 6, 7, 8])
        assert report.abelianization_direct == expected
        assert report.abelianization_amalgamated == expected
        direct, from_cover = report.factorizations
        assert direct == classify(COVER.L)
        assert from_cover == direct
        assert set(report.generator_classes) == {
            "A0", "K0_minus_A0", "K1_tree_new", "K1_free", "K2_tree_new", "K2_free",
        }
        assert report.generator_classes["K1_free"] == (("v0", "v2"),)

    def test_figure4_unit_weights_gives_free_rank_two(self):
        report = verify_van_kampen(COVER_W1)
        assert report.hypotheses_ok
        assert report.abelianizations_equal
        assert report.abelianization_direct == AbelianGroup(2)

    def test_failed_hypotheses_skip_comparison(self):
        spec = CoverSpec(COVER.L, COVER.K1, COVER.K2, COVER.K1)
        report = verify_van_kampen(spec)
        assert not report.hypotheses_ok
        assert report.amalgamated is None
        assert report.direct is None
        assert report.abelianizations_equal is None
        assert report.factorizations is None

    def test_random_covers_satisfy_lemma_and_agree(self):
        rng = random.Random(89)
        for _ in range(60):
            spec = random_cover(rng)
            report = verify_van_kampen(spec)
            assert report.hypotheses_ok, report.hypothesis_report.violations
            assert report.tree_union_ok
            assert report.tree_intersection_ok
            assert report.abelianizations_equal
            if report.factorizations is not None:
                direct, from_cover = report.factorizations
                assert direct == from_cover


class TestCoverFactorization:
    """The factorization predicted from the cover is classify's rule read
    off the cover's tree classes; the oracle applies the six-class rule."""

    @staticmethod
    def check(spec):
        report = verify_van_kampen(spec)
        assert report.hypotheses_ok, report.hypothesis_report.violations
        if report.factorizations is None:
            return False
        predicted = cover_factorization_oracle(spec.L, report.generator_classes)
        assert report.factorizations[1] == predicted
        return True

    def test_random_covers(self):
        rng = random.Random(2024)
        assert sum(self.check(random_cover(rng)) for _ in range(150)) > 100

    @pytest.mark.parametrize("span", [(-5, 5), (2, 10 ** 6)])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_split_grid_covers(self, k, span):
        spec = split_grid_cover(random.Random(k), k, span)
        # Most of the grid's triangles have one edge in its tree, so L fails
        # exactly-two and nothing is predicted; the members' 1-skeletons are
        # a cover of graphs, which always passes.
        assert not self.check(spec)
        assert self.check(CoverSpec(*(replace(K, triangles=()) for K in
                                      (spec.L, spec.K1, spec.K2, spec.K0))))


class TestVerifyAgainstPublicFunctions:
    """verify_van_kampen computes its report without calling the public
    check_hypotheses and amalgamated_presentation; it must agree with them."""

    @staticmethod
    def covers(rng):
        """Seeded random covers, each with its broken variants and with L's
        tree rebuilt by kruskal-max (which can break only the tree lemma)."""
        for _ in range(40):
            spec = random_cover(rng)
            yield spec
            yield from (broken(spec) for broken in BROKEN_COVERS.values())
            yield replace(spec, L=ensure_tree(replace(spec.L, tree=None), "kruskal-max"))

    def test_seeded_covers_and_mutations(self):
        held = lemma_failed = 0
        for spec in self.covers(random.Random(31)):
            report = verify_van_kampen(spec)
            assert report.hypothesis_report == check_hypotheses(spec)
            assert report.hypotheses_ok == report.hypothesis_report.ok
            # The tree flags as read off the violations: False after any
            # member violation, else False exactly when their rule is listed.
            rules = {rule for rule, _ in report.hypothesis_report.violations}
            members_ok = not any(rule.split("-", 1)[0] in ("L", "K1", "K2", "K0")
                                 for rule in rules)
            assert report.tree_union_ok == (members_ok and "tree-union" not in rules)
            assert report.tree_intersection_ok == (
                members_ok and "tree-intersection" not in rules)
            lemma_failed += members_ok and not report.tree_union_ok
            if report.hypotheses_ok:
                held += 1
                assert report.amalgamated == amalgamated_presentation(spec)
            else:
                with pytest.raises(HypothesesFailed):
                    amalgamated_presentation(spec)
        assert held and lemma_failed

    def test_validates_each_member_once(self, monkeypatch):
        calls = []

        def counting(K: WeightedComplex):
            calls.append(K)
            return validate(K)

        validate = wfg.complexes.validate
        monkeypatch.setattr(wfg.complexes, "validate", counting)
        verify_van_kampen(COVER)
        assert len(calls) == 4


def test_cover_json_requires_all_four_members():
    doc = load_figure("figure4-cover.json")
    del doc["K0"]
    with pytest.raises(SchemaError, match='missing key "K0"'):
        cover_from_json(doc)
