import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wfg.errors import NonPositive, ShapeMismatch
from wfg.exact import (
    AbelianGroup,
    IntegerMatrix,
    abelian_group_from_matrix,
    mobius,
    smith_normal_form,
)

from helpers import (
    RELATION_MATRIX_KINDS,
    NonzeroConstantTerm,
    OrderMismatch,
    RationalSeries,
    binomial_series,
    chain_insertion_oracle,
    check_snf_contract,
    cyclic_orders_oracle,
    dense_abelian_group,
    determinant,
    diagonal_group,
    identity_matrix,
    is_unimodular,
    matmul,
    mobius_oracle,
    one_minus_x_pow,
    random_matrix,
    random_relation_matrix,
    series_log1m,
    snf_diagonal_oracle,
    series_mul,
)


def snf_diagonal(rows, cols=None):
    return smith_normal_form(IntegerMatrix.from_rows(rows, cols)).diagonal()


class TestIntegerMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ShapeMismatch):
            IntegerMatrix(2, 2, (1, 2, 3))

    def test_mul_shapes_checked(self):
        a = IntegerMatrix.from_rows([[1, 2]])
        with pytest.raises(ShapeMismatch):
            matmul(a, a)

    def test_entries_stored_as_exact_ints(self):
        A = IntegerMatrix(2, 2, [True, False, 3, -2 ** 70])
        assert A.entries == (1, 0, 3, -2 ** 70)
        assert [type(x) for x in A.entries] == [int] * 4

    @pytest.mark.parametrize("entry", [2.9, 2.0, "7"])
    def test_non_integer_entries_rejected(self, entry):
        # int() would truncate 2.9 to 2, so the 1x1 matrix presented Z/2.
        with pytest.raises(TypeError):
            IntegerMatrix(1, 1, (entry,))

    def test_sparse_rows_match_the_dense_form(self):
        A = IntegerMatrix.from_sparse_rows(3, [{2: 5, 0: -1}, {}, {1: 0, 2: True}])
        assert A.sparse_rows == (((0, -1), (2, 5)), (), ((2, 1),))
        assert A == IntegerMatrix.from_rows([[-1, 0, 5], [0, 0, 0], [0, 0, 1]])
        assert A.entries == (-1, 0, 5, 0, 0, 0, 0, 0, 1)
        assert A.to_rows() == [[-1, 0, 5], [0, 0, 0], [0, 0, 1]]
        assert A.entry(0, 2) == 5 and A.entry(1, 1) == 0
        assert hash(A) == hash(IntegerMatrix(3, 3, A.entries))

    @pytest.mark.parametrize("row, error", [
        ({3: 1}, ShapeMismatch), ({-1: 1}, ShapeMismatch), ({0: 2.9}, TypeError),
    ])
    def test_sparse_rows_checked(self, row, error):
        with pytest.raises(error):
            IntegerMatrix.from_sparse_rows(3, [row])

    def test_immutable(self):
        A = IntegerMatrix.from_rows([[1, 2]])
        with pytest.raises(AttributeError):
            A.rows = 3

    def test_determinant(self):
        assert determinant(identity_matrix(3)) == 1
        assert determinant(IntegerMatrix.from_rows([[2, 4], [6, 8]])) == -8
        assert determinant(IntegerMatrix.from_rows([[1, 2], [2, 4]])) == 0
        assert determinant(identity_matrix(0)) == 1

    def test_determinant_multiplicative(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            a = IntegerMatrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
            b = IntegerMatrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
            assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


class TestSmithNormalForm:
    def test_identity_is_fixed(self):
        assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]

    def test_divisor_chain_example(self):
        # d1 = gcd of all entries = 2, d1*d2 = |det| = 8.
        assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]

    def test_coprime_diagonal_merges(self):
        # d1 = gcd(2, 3) = 1, product of factors = |det| = 6.
        assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]

    def test_empty_and_degenerate_shapes(self):
        assert snf_diagonal([], cols=3) == []
        assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]

    def test_contract_on_random_matrices(self):
        check_snf_contract(random.Random(101), 60)

    def test_transforms_returned_exactly(self):
        A = IntegerMatrix.from_rows([[6, 4], [8, 10], [2, 0]])
        result = smith_normal_form(A)
        assert matmul(matmul(result.U, A), result.V) == result.D
        assert is_unimodular(result.U)
        assert is_unimodular(result.V)


    def test_matches_determinantal_divisor_oracle(self):
        rng = random.Random(20260)
        for _ in range(300):
            rows, cols = rng.randint(0, 4), rng.randint(0, 5)
            span = rng.choice((1, 3, 12, 360))
            zeros = rng.random()
            A = IntegerMatrix(rows, cols, tuple(
                0 if rng.random() < zeros else rng.randint(-span, span)
                for _ in range(rows * cols)
            ))
            assert smith_normal_form(A).diagonal() == snf_diagonal_oracle(A)


class TestAbelianGroupFromMatrix:
    def test_no_relations(self):
        assert abelian_group_from_matrix(IntegerMatrix(0, 3, ())) == AbelianGroup(3)

    def test_remark_group(self):
        A = IntegerMatrix.from_rows([[2, 0, 0], [0, 0, 4]])
        assert abelian_group_from_matrix(A) == AbelianGroup(1, (2, 4))

    def test_two_free_generators_with_five_torsion(self):
        # Relation matrix of the wedge-of-two-circles complex with all
        # weights 2: four killed generators plus one mixed relation.
        A = IntegerMatrix.from_rows(
            [
                [2, 0, 0, 0, 0, 0, 0],
                [0, 2, 0, 0, 0, 0, 0],
                [0, 0, 2, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 2, 0],
                [0, 0, 0, 2, -2, 0, 2],
            ]
        )
        assert abelian_group_from_matrix(A) == AbelianGroup(2, (2, 2, 2, 2, 2))

    def test_row_operations_do_not_change_group(self):
        rng = random.Random(13)
        for _ in range(60):
            A = random_matrix(rng, max_dim=5, span=6)
            group = abelian_group_from_matrix(A)
            rows = A.to_rows()
            rng.shuffle(rows)
            i = rng.randrange(len(rows))
            rows[i] = [-x for x in rows[i]]
            j = rng.randrange(len(rows))
            if i != j:
                rows[i] = [x + y for x, y in zip(rows[i], rows[j])]
            B = IntegerMatrix.from_rows(rows, A.cols)
            assert abelian_group_from_matrix(B) == group


class TestSparseKernel:
    """``abelian_group_from_matrix`` against the dense Smith form and the
    determinantal-divisor oracle."""

    def test_agrees_with_both_oracles(self):
        rng = random.Random(4)
        seen = {kind: 0 for kind in RELATION_MATRIX_KINDS}
        for case in range(420):
            kind = RELATION_MATRIX_KINDS[case % len(RELATION_MATRIX_KINDS)]
            A = random_relation_matrix(rng, kind)
            group = abelian_group_from_matrix(A)
            assert group == dense_abelian_group(A), (kind, A)
            if min(A.rows, A.cols) <= 4:
                assert group == diagonal_group(snf_diagonal_oracle(A), A.cols), (kind, A)
                seen[kind] += 1
        assert min(seen.values()) >= 30

    def test_generated_cases_have_their_kind(self):
        rng = random.Random(4)
        for _ in range(20):
            A = random_relation_matrix(rng, "no-units")
            assert not any(abs(x) == 1 for x in A.entries)
            A = random_relation_matrix(rng, "huge")
            assert all(abs(x) >= 2 ** 64 - 3 for x in A.entries if x)
            A = random_relation_matrix(rng, "empty")
            assert A.rows == 0 or A.cols == 0
            A = random_relation_matrix(rng, "zero-lines")
            rows = A.to_rows()
            assert [0] * A.cols in rows
            assert any(all(row[j] == 0 for row in rows) for j in range(A.cols))
            rows = random_relation_matrix(rng, "duplicate-rows").to_rows()
            assert any(rows[i] == [c * x for x in rows[j]]
                       for i in range(len(rows)) for j in range(len(rows)) if i != j
                       for c in (-2, -1, 1, 2))

    def test_examples(self):
        cases = [
            ([[4, 6], [6, 4]], AbelianGroup(0, (2, 10))),
            ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], AbelianGroup(0, (2, 6, 12))),
            ([[0, 0], [0, 0]], AbelianGroup(2)),
            ([[2 ** 64, 0], [0, 2 ** 64 + 2]], AbelianGroup(0, (2, 2 ** 127 + 2 ** 64))),
            ([[3, 5]], AbelianGroup(1)),
        ]
        for rows, group in cases:
            A = IntegerMatrix.from_rows(rows)
            assert abelian_group_from_matrix(A) == group


class TestAbelianGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            AbelianGroup(-1)

    def test_from_cyclic_orders(self):
        assert AbelianGroup.from_cyclic_orders([0, 30, 4]) == AbelianGroup(1, (2, 60))
        assert AbelianGroup.from_cyclic_orders([]) == AbelianGroup(0)
        assert AbelianGroup.from_cyclic_orders([2, 3]) == AbelianGroup(0, (6,))
        assert AbelianGroup.from_cyclic_orders([-2, 1]) == AbelianGroup(0, (2,))

    def test_from_cyclic_orders_large_prime(self):
        # Trial division would need ~1.5e9 steps for the Mersenne prime.
        p = 2 ** 61 - 1
        assert AbelianGroup.from_cyclic_orders([p, 6, 4]) == AbelianGroup(0, (2, 12 * p))

    def test_from_cyclic_orders_agrees_with_pairwise_pass(self):
        rng = random.Random(23)
        pool = [0, 1, -1, 2, 3, 4, 6, 8, 9, 12, 30, 2 ** 61 - 1, 10 ** 30, -12]
        for _ in range(300):
            orders = [rng.choice(pool) if rng.random() < 0.7 else rng.randint(-10 ** 6, 10 ** 6)
                      for _ in range(rng.randint(0, 10))]
            assert AbelianGroup.from_cyclic_orders(orders) == cyclic_orders_oracle(orders)

    @given(st.lists(st.one_of(
        st.integers(-40, 40),
        st.sampled_from((2 ** 61 - 1, 10 ** 30, 2 ** 40, 3 ** 20, 6 * (2 ** 31 - 1))),
        st.builds(math.prod, st.lists(st.sampled_from((2, 3, 4, 5, 9, 25)), max_size=6)),
    ), max_size=40))
    def test_from_cyclic_orders_agrees_with_linear_insertion(self, orders):
        assert AbelianGroup.from_cyclic_orders(orders) == chain_insertion_oracle(orders)

    def test_from_cyclic_orders_agrees_with_snf_route(self):
        rng = random.Random(17)
        pool = [0, 0, 2, 3, 4, 6, 8, 9, 12,
                2 ** 61 - 1, 140737488355213, 1_000_000_007,
                2 ** 40, 3 ** 20, 6 * (2 ** 31 - 1), (2 ** 31 - 1) ** 2]
        for _ in range(80):
            orders = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            rows = [
                [m if i == j else 0 for j in range(len(orders))]
                for i, m in enumerate(orders)
                if m != 0
            ]
            via_snf = abelian_group_from_matrix(IntegerMatrix.from_rows(rows, len(orders)))
            assert AbelianGroup.from_cyclic_orders(orders) == via_snf

    def test_rendering(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(2, (2, 4))) == "Z^2 ⊕ Z/2 ⊕ Z/4"


class TestMobius:
    def test_small_values(self):
        assert mobius(1) == 1
        assert mobius(6) == 1  # two prime factors
        assert mobius(12) == 0  # divisible by 4

    def test_against_trial_division_oracle(self):
        assert all(mobius(n) == mobius_oracle(n) for n in range(1, 400))

    def test_divisor_sums(self):
        total = [0] * 10001
        for d in range(1, 10001):
            mu = mobius(d)
            for n in range(d, 10001, d):
                total[n] += mu
        assert total[1] == 1
        assert all(total[n] == 0 for n in range(2, 10001))

    def test_domain(self):
        with pytest.raises(NonPositive):
            mobius(0)


class TestSeries:
    """The rational power-series oracle that tests/helpers.py keeps for the
    LCS ranks; the library itself no longer uses power series."""

    def test_binomial_series_low_orders(self):
        assert binomial_series(0, 4).coefficients == tuple(map(Fraction, (1, 0, 0, 0, 0)))
        assert binomial_series(1, 4).coefficients == tuple(map(Fraction, (1, 1, 1, 1, 1)))
        assert binomial_series(2, 4).coefficients == tuple(map(Fraction, (1, 2, 3, 4, 5)))

    def test_binomial_series_is_multiplicative_in_the_exponent(self):
        rng = random.Random(23)
        for _ in range(40):
            m1, m2 = rng.randint(0, 6), rng.randint(0, 6)
            lhs = series_mul(binomial_series(m1, 10), binomial_series(m2, 10))
            assert lhs == binomial_series(m1 + m2, 10)

    def test_one_minus_x_pow_inverts_binomial_series(self):
        for d in range(5):
            product = series_mul(one_minus_x_pow(d, 8), binomial_series(d, 8))
            assert product == RationalSeries.constant(1, 8)

    def test_mul_identity_and_examples(self):
        a = RationalSeries.from_coefficients([3, -1, Fraction(1, 2)], 2)
        assert series_mul(a, RationalSeries.constant(1, 2)) == a
        ones = RationalSeries.from_coefficients([1, 1, 1], 2)
        assert series_mul(ones, ones).coefficients == tuple(map(Fraction, (1, 2, 3)))
        x = RationalSeries.from_coefficients([0, 1], 2)
        assert series_mul(x, x).coefficients == tuple(map(Fraction, (0, 0, 1)))

    def test_mul_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            series_mul(RationalSeries.constant(1, 2), RationalSeries.constant(1, 3))

    def test_log1m_of_zero(self):
        zero = RationalSeries.constant(0, 6)
        assert series_log1m(zero) == zero

    def test_log1m_of_x(self):
        x = RationalSeries.from_coefficients([0, 1], 6)
        expected = [Fraction(0)] + [Fraction(-1, k) for k in range(1, 7)]
        assert series_log1m(x).coefficients == tuple(expected)

    def test_log1m_rank_two_closed_form(self):
        # 1 - u = (1 - 2x) / (1 - x)^2, so log(1 - u) has n-th coefficient
        # (2 - 2^n) / n, expanding log(1-2x) - 2 log(1-x).
        order = 10
        one = RationalSeries.constant(1, order)
        ratio = series_mul(
            RationalSeries.from_coefficients([1, -2], order), binomial_series(2, order)
        )
        u = one - ratio
        got = series_log1m(u)
        assert got.coefficients[0] == 0
        for n in range(1, order + 1):
            assert got.coefficients[n] == Fraction(2 - 2 ** n, n)

    def test_log1m_requires_zero_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            series_log1m(RationalSeries.constant(1, 3))

    def test_log1m_derivative_identity(self):
        # (1 - u) * (log(1 - u))' = -u' coefficientwise.
        rng = random.Random(29)
        order = 12

        def derivative(series):
            coeffs = [
                (n + 1) * series.coefficients[n + 1] for n in range(series.order)
            ]
            return RationalSeries(series.order - 1, tuple(coeffs))

        def truncate(series, new_order):
            return RationalSeries(new_order, series.coefficients[: new_order + 1])

        for _ in range(30):
            u = RationalSeries.from_coefficients(
                [0] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                       for _ in range(order)],
                order,
            )
            log = series_log1m(u)
            lhs = series_mul(
                truncate(RationalSeries.constant(1, order) - u, order - 1),
                derivative(log),
            )
            assert lhs == -derivative(u)
