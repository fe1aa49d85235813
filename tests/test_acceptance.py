"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single pass/fail line (run with -s to see them even on
success).  Property criteria run at 200+ randomized cases with fixed seeds.
"""

import random

from wfg.analysis import BirthDeathEvent, analyze_filtration, filtration_from_json
from wfg.complexes import complex_from_json
from wfg.exact import AbelianGroup, IntegerMatrix, abelian_group_from_matrix
from wfg.invariants import (
    CyclicFactorization,
    abelianization,
    classify,
    lcs_free_ranks,
    satisfies_exactly_two,
    weighted_homology_graph,
    witt_rank,
)
from wfg.vankampen import cover_from_json, verify_van_kampen

from helpers import (
    check_all_pm1_reduction,
    check_equal_weight_tree_independence,
    check_filtration_conservation,
    check_realize_roundtrip,
    check_relabel_invariance,
    check_sign_flip_invariance,
    check_snf_contract,
    lcs_ranks_oracle,
    load_figure,
    with_weights,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_figure1_classification():
    K = complex_from_json(load_figure("figure1.json"))
    factors = classify(K)
    report(1, factors.orders == (0, 2, 4) and str(factors) == "Z * Z/2 * Z/4",
           str(factors))


def test_criterion_2_poincare_failure():
    K = complex_from_json(load_figure("figure1.json"))
    ab = abelianization(K)
    h = weighted_homology_graph(K)
    ok = (
        ab == AbelianGroup(1, (2, 4))
        and h.h1 == AbelianGroup(1)
        and h.h0 == AbelianGroup(1, (2,))
    )
    report(2, ok, f"Ab={ab}, H1={h.h1}, H0={h.h0}")


def test_criterion_3_filled_simplex():
    K = complex_from_json(load_figure("figure2.json"))
    ok = classify(K).orders == ()
    for edge in ((0, 1), (0, 2), (1, 2)):
        for w in (2, -3, 5):
            bent = with_weights(K, lambda a, b, old: w if (a, b) == edge else old)
            factors = classify(bent)
            ok = ok and any(m >= 2 for m in factors.orders)
    report(3, ok)


def test_criterion_4_figure3_abelianization():
    K = complex_from_json(load_figure("figure3.json"))
    ab = abelianization(K)
    ok = (
        not satisfies_exactly_two(K)
        and ab.free_rank == 2
        and ab.torsion == (2, 2, 2, 2, 2)
    )
    report(4, ok, f"Ab={ab}")


def test_criterion_5_lcs_worked_example():
    K = complex_from_json(load_figure("figure1-w0-2.json"))
    factors = classify(K)
    ranks = lcs_free_ranks(factors, 2)
    ok = factors.orders == (0, 0, 2) and ranks == (2, 1)
    report(5, ok, f"factors={factors}, R1={ranks[0]}, R2={ranks[1]}")


def test_criterion_6_witt_sweep():
    # The library reads the ranks off witt_rank, so they are compared with
    # the generating function evaluated term by term as well.
    ok = True
    for m in range(1, 5):
        ranks = lcs_free_ranks(CyclicFactorization((0,) * m), 8)
        oracle = lcs_ranks_oracle((0,) * m, 8, 16)
        for n in range(2, 9):
            ok = ok and ranks[n - 1] == witt_rank(m, n) == oracle[n - 1]
    report(6, ok)


def test_criterion_7_van_kampen_figure4():
    weighted = verify_van_kampen(cover_from_json(load_figure("figure4-cover.json")))
    unit = verify_van_kampen(cover_from_json(load_figure("figure4-cover-w1.json")))

    rows = []
    orders = [0, 0, 2, 3, 4, 5, 6, 7, 8]
    for i, m in enumerate(orders):
        if m != 0:
            rows.append([m if j == i else 0 for j in range(len(orders))])
    expected = abelian_group_from_matrix(IntegerMatrix.from_rows(rows, len(orders)))

    ok = (
        unit.hypotheses_ok
        and unit.abelianizations_equal
        and unit.abelianization_direct == AbelianGroup(2)
        and weighted.hypotheses_ok
        and weighted.abelianizations_equal
        and weighted.abelianization_direct == expected
    )
    report(7, ok, f"unit={unit.abelianization_direct}, "
                  f"weighted={weighted.abelianization_direct}")


def test_criterion_8_figure5_filtration_events():
    f = filtration_from_json(load_figure("figure5-filtration.json"))
    analysis = analyze_filtration(f)
    expected = (
        BirthDeathEvent(1, "birth", 0, "unknown"),
        BirthDeathEvent(1, "birth", 3, "right"),
        BirthDeathEvent(1, "birth", 3, "right"),
        BirthDeathEvent(2, "death", 0, "unknown"),
        BirthDeathEvent(2, "birth", 2, "left"),
    )
    report(8, analysis.events == expected,
           "; ".join(f"s{e.stage} {e.kind} {e.factor} {e.region}" for e in analysis.events))


def test_criterion_9_fullerene_rings():
    pentagon = classify(complex_from_json(load_figure("figure6-pentagon.json")))
    hexagon = classify(complex_from_json(load_figure("figure6-hexagon.json")))
    ok = (
        pentagon.orders == (0,)
        and hexagon.orders == (0, 2, 2, 2)
        and pentagon != hexagon
    )
    report(9, ok, f"pentagon={pentagon}, hexagon={hexagon}")


def test_criterion_10_property_suites():
    suites = (
        ("sign-flip invariance", check_sign_flip_invariance, 211),
        ("all-pm1 reduction", check_all_pm1_reduction, 223),
        ("equal-weight tree independence", check_equal_weight_tree_independence, 227),
        ("relabeling invariance", check_relabel_invariance, 229),
        ("snf contract", check_snf_contract, 233),
        ("filtration conservation", check_filtration_conservation, 239),
        ("realize round-trip", check_realize_roundtrip, 241),
    )
    for name, checker, seed in suites:
        checker(random.Random(seed), 200)
    report(10, True, "7 suites x 200 cases")
