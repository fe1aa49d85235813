"""Shared test utilities: figure loading, random generators for complexes,
covers, and filtrations, independent oracles, and the reusable property
checkers run at full scale by the acceptance suite."""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from wfg import (
    AbelianGroup,
    CyclicFactorization,
    Filtration,
    IntegerMatrix,
    Presentation,
    WeightedComplex,
    WeightedHomology,
    abelianization,
    analyze_filtration,
    classify,
    complex_to_json,
    compute_maximal_tree,
    free_reduce,
    normalize_factorization,
    smith_normal_form,
    validate,
)
from wfg.complexes import UnionFind
from wfg.errors import ConditionFailed, ShapeMismatch
from wfg.exact import _coprime_base, _valuation
from wfg.record import replace
from wfg.vankampen import CoverSpec

FIGURES = Path(__file__).resolve().parent.parent / "figures"
VERBS = ("validate", "tree", "present", "classify", "abelianize", "homology",
         "lcs", "vankampen", "filtration", "hamiltonian")


def load_figure(name: str) -> dict:
    return json.loads((FIGURES / name).read_text(encoding="utf-8"))


def mobius_oracle(n: int) -> int:
    """Trial-division oracle, independent of the library implementation."""
    for d in range(2, int(n ** 0.5) + 1):
        if n % (d * d) == 0:
            return 0
    count = 0
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return (-1) ** count


# ---------------------------------------------------------------------------
# Truncated rational power series: the oracle for the LCS ranks.  The
# library reads the ranks off Witt's necklace formula; this evaluates the
# generating function literally, with exact Fraction coefficients.

class OrderMismatch(ValueError):
    """Series operands have different truncation orders."""


class NonzeroConstantTerm(ValueError):
    """log(1-u) requires u to vanish at 0."""


@dataclass(frozen=True)
class RationalSeries:
    """Formal power series truncated at x**order, exact rational coefficients."""

    order: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(self.coefficients) != self.order + 1:
            raise OrderMismatch(
                f"order {self.order} series needs {self.order + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    @classmethod
    def constant(cls, value, order: int) -> "RationalSeries":
        return cls(order, (Fraction(value),) + (Fraction(0),) * order)

    @classmethod
    def from_coefficients(cls, coeffs, order: int) -> "RationalSeries":
        """Build a series from leading coefficients, zero-padded to order."""
        coeffs = [Fraction(c) for c in coeffs][: order + 1]
        coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        return cls(order, tuple(coeffs))

    def _check(self, other: "RationalSeries"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        self._check(other)
        return RationalSeries(
            self.order, tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        self._check(other)
        return RationalSeries(
            self.order, tuple(a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(self.order, tuple(-a for a in self.coefficients))


def binomial_series(m: int, order: int) -> RationalSeries:
    """Expansion of (1-x)^(-m) for m >= 0: coefficient of x^n is C(n+m-1, m-1)."""
    if m < 0 or order < 0:
        raise ValueError("exponent and truncation order must be nonnegative")
    if m == 0:
        return RationalSeries.constant(1, order)
    return RationalSeries(
        order, tuple(Fraction(math.comb(n + m - 1, m - 1)) for n in range(order + 1))
    )


def one_minus_x_pow(d: int, order: int) -> RationalSeries:
    """The polynomial (1-x)^d for d >= 0, truncated at the given order."""
    if d < 0:
        raise ValueError(f"exponent must be nonnegative, got {d}")
    coeffs = [
        Fraction((-1) ** k * math.comb(d, k)) if k <= d else Fraction(0)
        for k in range(order + 1)
    ]
    return RationalSeries(order, tuple(coeffs))


def series_mul(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Truncated Cauchy product."""
    a._check(b)
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, ca in enumerate(a.coefficients):
        if ca == 0:
            continue
        for j in range(n + 1 - i):
            cb = b.coefficients[j]
            if cb != 0:
                out[i + j] += ca * cb
    return RationalSeries(n, tuple(out))


def series_log1m(u: RationalSeries) -> RationalSeries:
    """log(1-u) = -sum_{k>=1} u^k / k for a series u with zero constant term.

    Since u has valuation >= 1, u^k has valuation >= k and the sum below is
    finite at any truncation order.
    """
    if u.coefficients[0] != 0:
        raise NonzeroConstantTerm("log(1-u) requires u(0) = 0")
    n = u.order
    out = [Fraction(0)] * (n + 1)
    power = u
    for k in range(1, n + 1):
        for idx, c in enumerate(power.coefficients):
            if c != 0:
                out[idx] -= Fraction(c, k)
        if k < n:
            power = series_mul(power, u)
    return RationalSeries(n, tuple(out))


def lcs_ranks_oracle(orders, max_n: int, order: int) -> tuple[int, ...]:
    """R_1..R_max_n from the generating function, term by term: with s
    factors, m of them infinite, and d_j = 1 exactly for the infinite ones,

        U(x) = 1 + (1-x)^(-m) * ((s - 1) - sum_j (1-x)^(d_j)),
        alpha_k = -(coefficient of x^k in log(1 - U(x))),
        R_n = (1/n) * sum_{k | n, k > 1} mobius(n/k) * k * alpha_k,

    with R_1 = m.  Uses the trial-division Moebius oracle."""
    m = sum(1 for q in orders if q == 0)
    acc = RationalSeries.constant(len(orders) - 1, order)
    for q in orders:
        acc = acc - one_minus_x_pow(1 if q == 0 else 0, order)
    u = RationalSeries.constant(1, order) + series_mul(binomial_series(m, order), acc)
    alpha = [-c for c in series_log1m(u).coefficients]
    ranks = [m]
    for n in range(2, max_n + 1):
        total = sum(
            mobius_oracle(n // k) * k * alpha[k] for k in range(2, n + 1) if n % k == 0
        )
        value = Fraction(total, n)
        assert value.denominator == 1 and value >= 0, f"R_{n} = {value}"
        ranks.append(int(value))
    return tuple(ranks)


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return IntegerMatrix(a.rows, b.cols, tuple(
        sum(row[k] * b.entry(k, j) for k in range(a.cols))
        for row in a.to_rows() for j in range(b.cols)))


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: this division is exact over the integers.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(A: IntegerMatrix) -> bool:
    return A.rows == A.cols and abs(determinant(A)) == 1


def simplify(p: Presentation) -> Presentation:
    """Safe Tietze moves only: drop empty relators, eliminate generators
    killed by a length-1 exponent-±1 relator, and freely reduce.  The
    result presents the same group; the invariant-factor kernel's unit
    pivots are the same moves on the relation matrix."""
    generators = list(p.generators)
    relators = [list(w) for w in p.relators]

    changed = True
    while changed:
        changed = False
        reduced = [list(free_reduce(w)) for w in relators]
        reduced = [w for w in reduced if w]
        if len(reduced) != len(relators):
            changed = True
        relators = reduced

        doomed = None
        for w in relators:
            if len(w) == 1 and abs(w[0][1]) == 1:
                doomed = w[0][0]
                break
        if doomed is not None:
            generators.pop(doomed)
            relators = [
                [(g - (g > doomed), e) for g, e in w if g != doomed] for w in relators
            ]
            changed = True

    return Presentation(tuple(generators), tuple(tuple(w) for w in relators))


def snf_diagonal_oracle(A: IntegerMatrix) -> list[int]:
    """Smith diagonal from determinantal divisors, independent of the
    library's elimination: d_k = D_k / D_(k-1), where D_k is the gcd of all
    k x k minors (D_0 = 1).  Once D_k = 0 every later minor vanishes too."""
    rows = A.to_rows()
    size = min(A.rows, A.cols)
    diag, previous = [], 1
    for k in range(1, size + 1):
        delta = 0
        for r in itertools.combinations(range(A.rows), k):
            for c in itertools.combinations(range(A.cols), k):
                minor = IntegerMatrix.from_rows([[rows[i][j] for j in c] for i in r], k)
                delta = math.gcd(delta, determinant(minor))
        if delta == 0:
            return diag + [0] * (size - k + 1)
        diag.append(delta // previous)
        previous = delta
    return diag


def dense_abelian_group(A: IntegerMatrix) -> AbelianGroup:
    """Cokernel of A^T read off the dense Smith form, U and V included: the
    oracle for the sparse kernel behind ``abelian_group_from_matrix``."""
    return diagonal_group(smith_normal_form(A).diagonal(), A.cols)


def cyclic_orders_oracle(orders) -> AbelianGroup:
    """Invariant factors of a direct sum of cyclic groups (order 0 meaning
    Z) by the pairwise pass: Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) for
    every pair i < j in turn, so each order ends up dividing every later
    one."""
    orders = [abs(m) for m in orders]
    finite = [m for m in orders if m != 0]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            a, b = finite[i], finite[j]
            finite[i], finite[j] = math.gcd(a, b), math.lcm(a, b)
    return AbelianGroup(orders.count(0), tuple(m for m in finite if m != 1))


def chain_insertion_oracle(orders) -> AbelianGroup:
    """Invariant factors of a direct sum of cyclic groups (order 0 meaning
    Z) by linear insertion into the divisor chain, largest factor first:
    every factor is visited, d becoming lcm(d, carry) and the carry
    gcd(d, carry), until the carry is 1.  The oracle for the bisecting
    insertion of ``AbelianGroup.from_cyclic_orders``."""
    orders = [abs(m) for m in orders]
    chain: list[int] = []
    for carry in orders:
        if carry == 0:
            continue
        for j, d in enumerate(chain):
            if carry == 1:
                break
            chain[j], carry = math.lcm(d, carry), math.gcd(d, carry)
        if carry != 1:
            chain.append(carry)
    return AbelianGroup(orders.count(0), tuple(reversed(chain)))


def diagonal_group(diag, n_generators: int) -> AbelianGroup:
    """Z^n_generators modulo the diagonal relations d_i * e_i."""
    rank = sum(1 for d in diag if d != 0)
    return AbelianGroup(n_generators - rank, tuple(d for d in diag if d >= 2))


def h0_presentation(K: WeightedComplex) -> Presentation:
    """H0 of a weighted graph presented for the sparse kernel: one
    generator per vertex and the relator [a]^-w [b]^w per edge [a, b]."""
    return Presentation(K.vertices, [((a, -w), (b, w)) for a, b, w in K.edges])


def full_base_h0(n_vertices: int, edges) -> AbelianGroup:
    """H0 of a graph as ``exact.forest_torsion`` finds it, but from the
    coprime base of every |w|, skipping each base element that shares no
    prime with the product of a least-weight spanning forest, with full
    Kruskal passes and the factors recombined by
    ``AbelianGroup.from_cyclic_orders``; quadratic in the distinct
    weights."""
    forest = UnionFind(n_vertices)
    product = math.prod(abs(w) for a, b, w in sorted(edges, key=lambda e: abs(e[2]))
                        if forest.union(a, b))
    orders = [0] * forest.components
    for q in _coprime_base({abs(w) for *_, w in edges}):
        if math.gcd(product, q) == 1:
            continue
        greedy = UnionFind(n_vertices)
        greedy.union_all((a, b) for a, b, w in edges if w % q)
        for c, a, b in sorted((_valuation(w, q), a, b) for a, b, w in edges if not w % q):
            if greedy.union(a, b):
                orders.append(q ** c)
    return AbelianGroup.from_cyclic_orders(orders)


def dense_homology(K: WeightedComplex) -> WeightedHomology:
    """Weighted homology of a graph read off the dense Smith form of its
    vertices x edges boundary matrix."""
    n_v, n_e = len(K.vertices), len(K.edges)
    boundary = [[0] * n_e for _ in range(n_v)]
    for j, (a, b, w) in enumerate(K.edges):
        boundary[a][j] -= w
        boundary[b][j] += w
    diag = smith_normal_form(IntegerMatrix.from_rows(boundary, n_e)).diagonal()
    rank = sum(1 for d in diag if d)
    return WeightedHomology(h0=diagonal_group(diag, n_v), h1=AbelianGroup(n_e - rank))


def classify_oracle(complex: WeightedComplex) -> CyclicFactorization:
    """``classify`` read off every edge of the complex against its stored
    tree: the oracle for the per-tree routine, which walks only the tree."""
    tree = set(complex.tree)
    for a, v, b in complex.triangles:
        if sum(e in tree for e in ((a, v), (v, b), (a, b))) != 2:
            la, lv, lb = (complex.vertices[i] for i in (a, v, b))
            raise ConditionFailed(
                f"exactly-two condition fails at triangle ({la},{lv},{lb})",
                triangle=(a, v, b),
            )
    faces = {e for a, v, b in complex.triangles for e in ((a, v), (v, b), (a, b))}
    return normalize_factorization(
        w if (a, b) in tree or (a, b) in faces else 0 for a, b, w in complex.edges
    )


def discriminate_trees_oracle(complex: WeightedComplex, trees):
    """Invariants and abelianization flag of ``discriminate_trees`` the
    long way: a copy of the complex carrying each tree, classified, and
    every copy abelianized once any of them fails the exactly-two
    condition."""
    variants = [complex.with_tree(t) for t in trees]
    try:
        return tuple(classify_oracle(v) for v in variants), False
    except ConditionFailed:
        return tuple(abelianization(v) for v in variants), True


def hamiltonian_trees_oracle(complex: WeightedComplex):
    """Sorted edge lists of the Hamiltonian-path trees of a graph and the
    number of partial paths the search visits, by plain recursion over a
    visited list: the reference for ``enumerate_hamiltonian_trees``, whose
    budget counts the same partial paths."""
    n = len(complex.vertices)
    found, path, visited = [], [], [False] * n
    count = 0

    def extend(v: int):
        nonlocal count
        count += 1
        path.append(v)
        visited[v] = True
        if len(path) == n:
            if path[0] <= path[-1]:  # equal only for the one-vertex path
                found.append(tuple(sorted(
                    (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
                )))
        else:
            for u in complex.adjacency[v]:
                if not visited[u]:
                    extend(u)
        path.pop()
        visited[v] = False

    for start in range(n):
        extend(start)
    return sorted(found), count


RELATION_MATRIX_KINDS = ("plain", "no-units", "zero-lines", "empty", "duplicate-rows",
                         "huge", "sparse")


def random_relation_matrix(rng, kind: str, max_dim=6) -> IntegerMatrix:
    """A random relation matrix of one of ``RELATION_MATRIX_KINDS``:
    entries in [-9, 9]; no entry +-1; zero rows and columns spliced in;
    0 x n or m x 0; rows repeated, negated or scaled; entries near
    +-2^64 and its multiples; or mostly zeros."""
    rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    if kind == "empty":
        return IntegerMatrix(*rng.choice([(0, cols), (rows, 0), (0, 0)]), ())

    def entry():
        if kind == "no-units":
            return rng.choice((0, 1)) * rng.choice((-1, 1)) * rng.randint(2, 9)
        if kind == "huge":
            return rng.choice((-1, 0, 1)) * (2 ** 64 * rng.randint(1, 3) + rng.randint(-3, 3))
        if kind == "sparse":
            return rng.randint(-9, 9) if rng.random() < 0.25 else 0
        return rng.randint(-9, 9)

    M = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-lines":
        M.insert(rng.randint(0, rows), [0] * cols)
        j = rng.randint(0, cols)
        M = [row[:j] + [0] + row[j:] for row in M]
    if kind == "duplicate-rows":
        for _ in range(rng.randint(1, 3)):
            c = rng.choice((-2, -1, 1, 2))
            M.append([c * x for x in rng.choice(M)])
        rng.shuffle(M)
    return IntegerMatrix.from_rows(M, len(M[0]))


@st.composite
def complexes(draw, max_vertices=6):
    """Complexes the JSON schema accepts, on up to max_vertices vertices,
    with every triangle's faces present.  Half the draws are connected, and
    the tree is absent, any subset of the edges or a greedy spanning forest,
    so both validation failures and the computations past validation are
    reached."""
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(range(n), 2))
    keys = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    if draw(st.booleans()):
        keys |= {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
    keys = sorted(keys)
    edges = [(a, b, draw(st.integers(-12, 12))) for a, b in keys]
    closed = [(a, v, b) for a, v, b in itertools.combinations(range(n), 3)
              if {(a, v), (v, b), (a, b)} <= set(keys)]
    triangles = draw(st.lists(st.sampled_from(closed), unique=True)) if closed else []
    tree = draw(st.sampled_from(["none", "subset", "forest"]))
    if tree == "none":
        tree = None
    elif tree == "subset":
        tree = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    else:
        uf = UnionFind(n)
        tree = [e for e in draw(st.permutations(keys)) if uf.union(*e)]
    return WeightedComplex(tuple(labels), tuple(edges), tuple(triangles), tree)


@st.composite
def complexes_with_trees(draw, max_vertices=6):
    """A connected complex on up to max_vertices vertices with one to four
    random maximal trees.  Its triangles are none, every closed triangle
    with exactly two edges in each drawn tree (no tree fails the
    exactly-two condition), or any closed triangles (some tree may fail,
    which sends discriminate_trees to abelianization).  The stored tree,
    which discrimination ignores, is absent or the last drawn tree."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        keys = set(pairs)  # complete, so that most triples close a triangle
    else:
        keys = {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
        if pairs:
            keys |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    keys = sorted(keys)
    edges = [(a, b, draw(st.integers(-6, 6))) for a, b in keys]
    trees = []
    for _ in range(draw(st.integers(1, 4))):
        uf = UnionFind(n)
        trees.append(tuple(sorted(e for e in draw(st.permutations(keys)) if uf.union(*e))))
    closed = [(a, v, b) for a, v, b in itertools.combinations(range(n), 3)
              if {(a, v), (v, b), (a, b)} <= set(keys)]
    mode = draw(st.sampled_from(["graph", "exactly-two", "any"]))
    if mode == "graph" or not closed:
        triangles = []
    elif mode == "exactly-two":
        triangles = [(a, v, b) for a, v, b in closed
                     if all(sum(e in t for e in ((a, v), (v, b), (a, b))) == 2 for t in trees)]
    else:
        triangles = draw(st.lists(st.sampled_from(closed), min_size=1, unique=True))
    stored = draw(st.sampled_from([None, trees[-1]]))
    K = WeightedComplex(tuple(f"v{i}" for i in range(n)), tuple(edges), tuple(triangles), stored)
    return K, trees


@st.composite
def weighted_graphs(draw, max_vertices=9):
    """Connected graphs on one to max_vertices vertices, a random spanning
    tree plus any other edges, with weights in -30..30, so that zero, unit
    and repeated |w| factors all occur."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    keys = {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
    if pairs:
        keys |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    keys = sorted(keys)
    return WeightedComplex(tuple(f"v{i}" for i in range(n)),
                           tuple((a, b, draw(st.integers(-30, 30))) for a, b in keys))


# |w| of zero and one, a few repeated small values and numbers to 2^64.
HAMILTONIAN_WEIGHTS = st.one_of(
    st.sampled_from((0, 1, -1, 2, -2, 6, -6)),
    st.integers(-(2 ** 64), 2 ** 64),
)


def _hub_chords(n: int) -> list[tuple[int, int]]:
    hubs = {n // 4, n // 2, 3 * n // 4}
    return sorted({(min(h, v), max(h, v)) for h in hubs for v in range(n) if abs(h - v) > 1})


@st.composite
def hub_graphs(draw, edges: int):
    """Graphs with exactly ``edges`` edges on one to 14 vertices: a path
    through every vertex, so at least one Hamiltonian tree, plus chords at
    three hubs spread along it, with the vertices relabelled at random.
    Spread hubs keep even 43 edges on 14 vertices under 1.4 million partial
    paths, where a band of chords or clustered hubs passes the budget."""
    n = draw(st.sampled_from([n for n in range(1, 15)
                              if n - 1 <= edges <= n - 1 + len(_hub_chords(n))]))
    pairs = [(i, i + 1) for i in range(n - 1)] + draw(st.permutations(_hub_chords(n)))
    label = draw(st.permutations(range(n)))
    weights = draw(st.lists(HAMILTONIAN_WEIGHTS, min_size=edges, max_size=edges))
    keys = sorted((min(label[a], label[b]), max(label[a], label[b])) for a, b in pairs[:edges])
    return WeightedComplex(tuple(f"v{i}" for i in range(n)),
                           tuple((a, b, w) for (a, b), w in zip(keys, weights)))


# |w| for homology graphs: units, small and large numbers, numbers near
# 2^64, and a set whose members share the factors 2 and 3.
HOMOLOGY_WEIGHTS = st.one_of(
    st.just(1),
    st.integers(2, 10 ** 6),
    st.integers(2 ** 64 - 10 ** 4, 2 ** 64 + 10 ** 4),
    st.sampled_from((4, 6, 8, 9, 12, 18, 36)),
)

# |w| whose primes the least-weight forest may or may not share: small
# numbers, prime powers and products of 2, 3 and 5, and numbers to 2^64.
COPRIME_BASE_WEIGHTS = st.one_of(
    st.integers(1, 12),
    st.integers(2, 10 ** 6),
    st.sampled_from((2, 3, 4, 6, 8, 9, 12, 18, 25, 36)),
    st.integers(2, 2 ** 64),
)


@st.composite
def homology_graphs(draw, max_vertices=9, weights=HOMOLOGY_WEIGHTS):
    """Graphs on one to max_vertices vertices, any edge set (so possibly
    disconnected), with nonzero weights of either sign from ``weights``."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    keys = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    return WeightedComplex(tuple(f"v{i}" for i in range(n)), tuple(
        (a, b, draw(st.sampled_from((1, -1))) * draw(weights)) for a, b in keys))


def raw_document(vertices, edges, triangles=(), tree=None) -> dict:
    """A complex document written from raw values, as the constructor takes
    them, whether or not they make a complex."""
    doc = {"vertices": list(vertices),
           "edges": [{"a": a, "b": b, "w": w} for a, b, w in edges],
           "triangles": [list(t) for t in triangles]}
    if tree is not None:
        doc["tree"] = [list(e) for e in tree]
    return doc


@st.composite
def raw_complexes(draw, max_vertices=4):
    """(vertices, edges, triangles, tree) drawn without the structural
    rules: indices in [-1, n] in either order, repeated edge keys, random
    triangle corners and tree pairs, and now and then no vertex or a
    repeated label.  Most draws are no complex; some are one."""
    rare = draw(st.integers(0, 19))
    n = 0 if rare == 0 else draw(st.integers(1, max_vertices))
    labels = [f"v{i}" for i in range(n)]
    if n >= 2 and rare == 1:
        labels[-1] = labels[0]
    at = st.integers(-1, n)
    pair = st.tuples(at, at)
    # Edges share a few keys, half of them put in order, so that keys
    # repeat and some edges are good.
    keys = draw(st.lists(pair | pair.map(sorted).map(tuple), min_size=1, max_size=4))
    edges = draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(-3, 3)), max_size=6))
    triangles = draw(st.lists(st.tuples(at, at, at).map(sorted) | st.tuples(at, at, at),
                              max_size=2))
    tree = draw(st.none() | st.lists(st.sampled_from(keys) | pair, max_size=4))
    return labels, [(a, b, w) for (a, b), w in edges], triangles, tree


def documents(max_vertices=6):
    """Complex, cover and filtration documents built from ``complexes``."""
    one = complexes(max_vertices).map(complex_to_json)
    cover = st.fixed_dictionaries({k: one for k in ("L", "K1", "K2", "K0")})
    filtration = st.fixed_dictionaries({
        "stages": st.lists(one, min_size=1, max_size=3),
        "regions": st.dictionaries(st.integers(-12, 12).map(str), st.text(max_size=3)),
    })
    return st.one_of(one, cover, filtration)


def with_weights(K: WeightedComplex, mapper) -> WeightedComplex:
    return WeightedComplex(
        K.vertices,
        tuple((a, b, mapper(a, b, w)) for a, b, w in K.edges),
        K.triangles,
        K.tree,
    )


def relabel(K: WeightedComplex, permutation) -> WeightedComplex:
    """Reorder vertices: the vertex at position i moves to position
    permutation[i].  Simplices are re-sorted so a < b and a < v < b hold."""
    n = len(K.vertices)
    p = list(permutation)
    assert sorted(p) == list(range(n)), f"not a bijection on 0..{n - 1}: {p}"
    new_vertices = [""] * n
    for i, label in enumerate(K.vertices):
        new_vertices[p[i]] = label
    edges = tuple((min(p[a], p[b]), max(p[a], p[b]), w) for a, b, w in K.edges)
    triangles = tuple(tuple(sorted((p[a], p[u], p[b]))) for a, u, b in K.triangles)
    tree = None
    if K.tree is not None:
        tree = tuple((min(p[a], p[b]), max(p[a], p[b])) for a, b in K.tree)
    return WeightedComplex(tuple(new_vertices), edges, triangles, tree)


def realize(target: CyclicFactorization) -> WeightedComplex:
    """A weighted wedge of edges whose classification is the target: one
    edge of weight m per factor, all edges in the tree."""
    k = len(target.orders)
    vertices = tuple(f"v{i}" for i in range(k + 1))
    edges = tuple((0, i + 1, m) for i, m in enumerate(target.orders))
    tree = tuple((0, i + 1) for i in range(k))
    return WeightedComplex(vertices, edges, (), tree)


def random_connected_graph(rng, min_v=2, max_v=10, weight_range=(-5, 5)) -> WeightedComplex:
    n = rng.randint(min_v, max_v)
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.randint(*weight_range)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        key = (min(a, b), max(a, b))
        edges.setdefault(key, rng.randint(*weight_range))
    return WeightedComplex(
        tuple(f"v{i}" for i in range(n)),
        tuple((a, b, w) for (a, b), w in sorted(edges.items())),
    )


def random_spanning_tree(K: WeightedComplex, rng) -> tuple:
    keys = list(K.edge_keys)
    rng.shuffle(keys)
    uf = UnionFind(len(K.vertices))
    return tuple(sorted(e for e in keys if uf.union(*e)))


def random_exactly_two_complex(rng, max_v=8) -> WeightedComplex:
    """Random complex satisfying the exactly-two condition: start from a
    graph with a tree, then glue triangles over pairs of tree edges that
    share a vertex (the closing edge stays outside the tree)."""
    K = random_connected_graph(rng, min_v=3, max_v=max_v)
    K = K.with_tree(random_spanning_tree(K, rng))
    tree = set(K.tree)
    edges = {(a, b): w for a, b, w in K.edges}
    triangles = set()
    tree_adjacent: dict[int, list[int]] = {}
    for a, b in K.tree:
        tree_adjacent.setdefault(a, []).append(b)
        tree_adjacent.setdefault(b, []).append(a)
    for _ in range(rng.randint(0, 4)):
        v = rng.randrange(len(K.vertices))
        nbrs = tree_adjacent.get(v, [])
        if len(nbrs) < 2:
            continue
        a, b = rng.sample(nbrs, 2)
        closing = (min(a, b), max(a, b))
        if closing in tree:
            continue
        edges.setdefault(closing, rng.randint(-5, 5))
        triangles.add(tuple(sorted((a, v, b))))
    return WeightedComplex(
        K.vertices,
        tuple((a, b, w) for (a, b), w in sorted(edges.items())),
        tuple(sorted(triangles)),
        K.tree,
    )


def random_factorization(rng) -> CyclicFactorization:
    pool = [0, 0, 0, 2, 2, 3, 4, 5, 6, 8, 9, 12]
    return normalize_factorization(
        [rng.choice(pool) for _ in range(rng.randint(0, 5))]
    )


def random_mixed_factorization(rng) -> CyclicFactorization:
    """At least one infinite and at least one finite cyclic factor."""
    free = [0] * rng.randint(1, 4)
    finite = [rng.randint(2, 12) for _ in range(rng.randint(1, 4))]
    return normalize_factorization(free + finite)


def random_matrix(rng, max_dim=6, span=9) -> IntegerMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix(
        rows, cols, tuple(rng.randint(-span, span) for _ in range(rows * cols))
    )


def random_unimodular(rng, n: int) -> IntegerMatrix:
    m = identity_matrix(n).to_rows()
    for _ in range(2 * n + 2):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            c = rng.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            m[i] = [-x for x in m[i]]
    return IntegerMatrix.from_rows(m, n)


def random_cover(rng) -> CoverSpec:
    """A valid two-piece cover built from the inside out: a connected core,
    two extensions over disjoint fresh vertices, compatible nested trees."""
    n0 = rng.randint(1, 3)
    core = [f"s{i}" for i in range(n0)]
    side1 = [f"a{i}" for i in range(rng.randint(0, 3))]
    side2 = [f"b{i}" for i in range(rng.randint(0, 3))]
    everything = core + side1 + side2
    rng.shuffle(everything)
    pos = {label: i for i, label in enumerate(everything)}

    weights: dict[tuple, int] = {}

    def key(x, y):
        return (x, y) if pos[x] < pos[y] else (y, x)

    def add_edge(store, x, y):
        k = key(x, y)
        weights.setdefault(k, rng.randint(-4, 4))
        store.add(k)

    e0: set = set()
    for i in range(1, n0):
        add_edge(e0, core[i], core[rng.randrange(i)])
    for _ in range(rng.randint(0, 2)):
        if n0 >= 2:
            add_edge(e0, *rng.sample(core, 2))

    def grow(extra, sibling_edges):
        edges = set(e0)
        grown = list(core)
        for label in extra:
            add_edge(edges, label, rng.choice(grown))
            grown.append(label)
        for _ in range(rng.randint(0, 3)):
            if len(grown) < 2:
                break
            x, y = rng.sample(grown, 2)
            k = key(x, y)
            if x in core and y in core and sibling_edges is not None \
                    and k in sibling_edges and k not in e0:
                continue  # would silently enlarge the intersection
            add_edge(edges, x, y)
        return edges, grown

    e1, vertices1 = grow(side1, None)
    e2, vertices2 = grow(side2, e1)

    def triangle_candidates(edge_set, labels):
        ordered = sorted(labels, key=pos.get)
        out = []
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                for k in range(j + 1, len(ordered)):
                    x, y, z = ordered[i], ordered[j], ordered[k]
                    if {key(x, y), key(y, z), key(x, z)} <= edge_set:
                        out.append((x, y, z))
        return out

    t0 = {t for t in triangle_candidates(e0, core) if rng.random() < 0.4}

    def side_triangles(edge_set, labels):
        picked = set(t0)
        for t in triangle_candidates(edge_set, labels):
            if t in t0:
                continue
            if {key(t[0], t[1]), key(t[1], t[2]), key(t[0], t[2])} <= e0:
                continue  # fully inside the core: belongs to t0 or nowhere
            if rng.random() < 0.3:
                picked.add(t)
        return picked

    t1 = side_triangles(e1, vertices1)
    t2 = side_triangles(e2, vertices2)

    def label_tree(labels, edge_set, base):
        index = {l: i for i, l in enumerate(labels)}
        uf = UnionFind(len(labels))
        tree = set()
        for k in base:
            uf.union(index[k[0]], index[k[1]])
            tree.add(k)
        order = sorted(edge_set)
        rng.shuffle(order)
        for k in order:
            if uf.union(index[k[0]], index[k[1]]):
                tree.add(k)
        return tree

    a0 = label_tree(core, e0, set())
    a1 = label_tree(vertices1, e1, a0)
    a2 = label_tree(vertices2, e2, a0)

    def build(labels, edge_set, tri_set, tree_set):
        ordered = sorted(labels, key=pos.get)
        index = {l: i for i, l in enumerate(ordered)}

        def ek(k):
            i, j = index[k[0]], index[k[1]]
            return (min(i, j), max(i, j))

        edges = tuple(sorted((*ek(k), weights[k]) for k in edge_set))
        triangles = tuple(sorted(
            tuple(sorted((index[x], index[y], index[z]))) for x, y, z in tri_set
        ))
        tree = tuple(sorted(ek(k) for k in tree_set))
        return WeightedComplex(tuple(ordered), edges, triangles, tree)

    return CoverSpec(
        L=build(set(vertices1) | set(vertices2), e1 | e2, t1 | t2, a1 | a2),
        K1=build(vertices1, e1, t1, a1),
        K2=build(vertices2, e2, t2, a2),
        K0=build(core, e0, t0, a0),
    )


def _reversed(K: WeightedComplex) -> WeightedComplex:
    """K with its vertex order reversed and every simplex re-indexed."""
    n = len(K.vertices)

    def flip(*simplex):
        return tuple(sorted(n - 1 - i for i in simplex))

    return WeightedComplex(K.vertices[::-1], [(*flip(a, b), w) for a, b, w in K.edges],
                           [flip(*t) for t in K.triangles],
                           None if K.tree is None else [flip(*e) for e in K.tree])


def _without_last_edge(K: WeightedComplex) -> WeightedComplex:
    """K less its last edge, the triangles on it and its tree entry."""
    if not K.edges:
        return K
    a, b, _ = K.edges[-1]
    return WeightedComplex(K.vertices, K.edges[:-1],
                           [t for t in K.triangles if not (a in t and b in t)],
                           [e for e in K.tree if e != (a, b)])


def _reweighted(K: WeightedComplex) -> WeightedComplex:
    """K with its first edge's weight raised by one."""
    if not K.edges:
        return K
    (a, b, w), *rest = K.edges
    return replace(K, edges=((a, b, w + 1), *rest))


# Edits of a valid cover, by name.  Each breaks a hypothesis of most
# covers; a swap of the sides, and K0 = K1 or L = K1 on a cover whose
# pieces happen to nest, still meet them.
BROKEN_COVERS = {
    "swapped": lambda s: CoverSpec(s.L, s.K2, s.K1, s.K0),
    "k0-is-k1": lambda s: replace(s, K0=s.K1),
    "k0-no-tree": lambda s: replace(s, K0=replace(s.K0, tree=None)),
    "l-tree-all-edges": lambda s: replace(s, L=s.L.with_tree(s.L.edge_keys)),
    "k1-missing-edge": lambda s: replace(s, K1=_without_last_edge(s.K1)),
    "k0-reversed": lambda s: replace(s, K0=_reversed(s.K0)),
    "l-weight-changed": lambda s: replace(s, L=_reweighted(s.L)),
    "l-is-k1": lambda s: replace(s, L=s.K1),
}


def random_filtration(rng, max_vertices=8, max_stages=4) -> Filtration:
    """Nested graphs grown over vertex prefixes; every stage is connected
    because each vertex first attaches to an earlier one."""
    n = rng.randint(2, max_vertices)
    final_edges = {}
    for i in range(1, n):
        final_edges[(rng.randrange(i), i)] = rng.randint(-4, 4)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        final_edges.setdefault((min(a, b), max(a, b)), rng.randint(-4, 4))
    sizes = sorted(rng.randint(2, n) for _ in range(rng.randint(1, max_stages - 1)))
    sizes.append(n)
    stages = []
    for size in sizes:
        edges = tuple(
            (a, b, w) for (a, b), w in sorted(final_edges.items()) if b < size
        )
        stage = WeightedComplex(tuple(f"v{i}" for i in range(size)), edges)
        stages.append(stage.with_tree(random_spanning_tree(stage, rng)))
    return Filtration(tuple(stages), {})


def _grid(k: int, weight):
    """Labels, weighted edges and triangles of a k x k grid of squares, each
    square cut along its down-right diagonal; vertex (r, c) has index
    r*(k+1)+c."""
    side = k + 1
    labels = tuple(f"v{r}_{c}" for r in range(side) for c in range(side))
    edges, triangles = {}, []
    for v in range(side * side):
        r, c = divmod(v, side)
        if c < k:
            edges[(v, v + 1)] = weight()
        if r < k:
            edges[(v, v + side)] = weight()
        if r < k and c < k:
            edges[(v, v + side + 1)] = weight()
            triangles += [(v, v + 1, v + side + 1), (v, v + side, v + side + 1)]
    return labels, edges, triangles


def _with_bfs_tree(labels, edges: dict, triangles) -> WeightedComplex:
    """The complex on ``labels`` with the {(a, b): w} ``edges`` and the
    ``triangles``, with its breadth-first tree."""
    K = WeightedComplex(tuple(labels), tuple((a, b, w) for (a, b), w in edges.items()),
                        tuple(triangles))
    return K.with_tree(compute_maximal_tree(K, "bfs"))


def _triangulated_grid(k: int, weight) -> WeightedComplex:
    return _with_bfs_tree(*_grid(k, weight))


def triangulated_grid(rng, k: int, high=5) -> WeightedComplex:
    """The triangulated k x k grid, weights in [-high, high], breadth-first
    tree."""
    return _triangulated_grid(k, lambda: rng.randint(-high, high))


def big_weight_grid(rng, k: int) -> WeightedComplex:
    """The triangulated k x k grid with weights in 2..10^6, breadth-first
    tree: no entry is a unit, and the elimination's entries grow to
    hundreds of bits."""
    return _triangulated_grid(k, lambda: rng.randint(2, 10 ** 6))


def grid_skeleton(rng, k: int) -> WeightedComplex:
    """1-skeleton of the grid with weights in 2..9: no boundary entry is a
    unit, so elimination must make its own."""
    labels, edges, _ = _grid(k, lambda: rng.randint(2, 9))
    return WeightedComplex(labels, tuple((a, b, w) for (a, b), w in edges.items()))


def split_grid_cover(rng, k: int, span=(-5, 5)) -> CoverSpec:
    """The triangulated grid (k even), weights in the closed range ``span``,
    cut into two halves sharing the middle column.  K0 is the middle column
    path with the path as its tree; each side's tree adds that side's
    horizontal edges to K0's tree."""
    labels, weights, triangles = _grid(k, lambda: rng.randint(*span))
    side, mid = k + 1, k // 2

    def piece(keep):
        kept = [v for v in range(side * side) if keep(v % side)]
        index = {v: i for i, v in enumerate(kept)}
        edges = [(index[a], index[b], w) for (a, b), w in weights.items()
                 if a in index and b in index]
        tris = [tuple(index[v] for v in t) for t in triangles if all(v in index for v in t)]
        tree = [(index[a], index[b]) for a, b in weights if a in index and b in index
                and (a % side == b % side == mid or b == a + 1)]
        return WeightedComplex(tuple(labels[v] for v in kept), edges, tris, tree)

    return CoverSpec(L=piece(lambda c: True), K1=piece(lambda c: c <= mid),
                     K2=piece(lambda c: c >= mid), K0=piece(lambda c: c == mid))


def mobius_grid(rng, k: int) -> WeightedComplex:
    """The triangulated k x k grid (k >= 3) with its last column glued,
    flipped, to its first: a Moebius band, weights in 2..9, breadth-first
    tree.  Every edge lies in at most two triangles, which cannot be
    oriented coherently."""
    labels, weights, triangles = _grid(k, lambda: rng.randint(2, 9))
    side = k + 1
    glue = {r * side + k: (k - r) * side for r in range(side)}
    kept = [v for v in range(side * side) if v not in glue]
    index = {v: i for i, v in enumerate(kept)}
    index.update((v, index[u]) for v, u in glue.items())
    edges: dict[tuple[int, int], int] = {}
    for (a, b), w in weights.items():
        edges.setdefault(tuple(sorted((index[a], index[b]))), w)
    return _with_bfs_tree([labels[v] for v in kept], edges,
                          [sorted(index[v] for v in t) for t in triangles])


def coned_grid(rng, k: int) -> WeightedComplex:
    """The triangulated k x k grid with an apex joined to every vertex and a
    triangle over every grid edge, so each inner grid edge lies in three
    triangles; weights in 2..9, breadth-first tree."""
    labels, edges, triangles = _grid(k, lambda: rng.randint(2, 9))
    apex = len(labels)
    triangles += [(a, b, apex) for a, b in edges]
    edges.update({(v, apex): rng.randint(2, 9) for v in range(apex)})
    return _with_bfs_tree(labels + ("apex",), edges, triangles)


# Prime powers and their products: the greedy order of valuations matters.
HOLED_GRID_WEIGHTS = (2, 4, 8, 16, 3, 9, 27, 6, 12, 36)


def holed_grid(rng, k: int) -> WeightedComplex:
    """The triangulated k x k grid less two triangles, so that its first
    Betti number is positive, weights from HOLED_GRID_WEIGHTS, breadth-first
    tree."""
    labels, edges, triangles = _grid(k, lambda: rng.choice(HOLED_GRID_WEIGHTS))
    for _ in range(2):
        triangles.remove(rng.choice(triangles))
    return _with_bfs_tree(labels, edges, triangles)


# ---------------------------------------------------------------------------
# Property checkers, shared between the unit tests (small case counts)
# and the acceptance suite (the specified 200+ cases).

def check_snf_contract(rng, cases: int):
    for _ in range(cases):
        A = random_matrix(rng)
        result = smith_normal_form(A)
        assert matmul(matmul(result.U, A), result.V) == result.D
        assert is_unimodular(result.U) and is_unimodular(result.V)
        diag = result.diagonal()
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d != 0]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if A.rows == A.cols:
            det = determinant(A)
            if det != 0:
                product = 1
                for d in diag:
                    product *= d
                assert product == abs(det)
        # The diagonal is a complete invariant under unimodular changes.
        P = random_unimodular(rng, A.rows)
        Q = random_unimodular(rng, A.cols)
        assert smith_normal_form(matmul(matmul(P, A), Q)).diagonal() == diag


def check_sign_flip_invariance(rng, cases: int):
    for _ in range(cases):
        K = random_exactly_two_complex(rng)
        flipped = with_weights(K, lambda a, b, w: w * rng.choice((1, -1)))
        assert classify(flipped) == classify(K)


def check_all_pm1_reduction(rng, cases: int):
    for _ in range(cases):
        K = random_exactly_two_complex(rng)
        signs = with_weights(K, lambda a, b, w: rng.choice((1, -1)))
        ones = with_weights(K, lambda a, b, w: 1)
        assert classify(signs) == classify(ones)


def check_equal_weight_tree_independence(rng, cases: int):
    for _ in range(cases):
        weight = rng.randint(-4, 4)
        K = random_connected_graph(rng, max_v=9, weight_range=(weight, weight))
        baseline = None
        for strategy in ("bfs", "kruskal-min", "kruskal-max"):
            value = classify(K.with_tree(compute_maximal_tree(K, strategy)))
            baseline = value if baseline is None else baseline
            assert value == baseline
        for _ in range(20):
            value = classify(K.with_tree(random_spanning_tree(K, rng)))
            assert value == baseline


def check_relabel_invariance(rng, cases: int):
    for _ in range(cases):
        K = random_exactly_two_complex(rng)
        perm = list(range(len(K.vertices)))
        rng.shuffle(perm)
        moved = relabel(K, perm)
        assert validate(moved).ok
        assert abelianization(moved) == abelianization(K)
        assert classify(moved) == classify(K)


def check_filtration_conservation(rng, cases: int):
    for _ in range(cases):
        f = random_filtration(rng)
        analysis = analyze_filtration(f)
        factors = analysis.stage_factors
        for i in range(1, len(factors)):
            balance = Counter(factors[i - 1].orders)
            for e in analysis.events:
                if e.stage != i:
                    continue
                if e.kind == "death":
                    balance[e.factor] -= 1
                else:
                    balance[e.factor] += 1
            assert +balance == Counter(factors[i].orders)


def check_realize_roundtrip(rng, cases: int):
    for _ in range(cases):
        target = random_factorization(rng)
        K = realize(target)
        assert validate(K).ok
        assert classify(K) == target
