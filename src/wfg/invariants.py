"""Computable group invariants of weighted complexes.

Covers the exactly-two classification into a free product of cyclic
groups, abelianization, weighted graph homology (kernel/cokernel of the
weighted boundary map), and the free ranks of the lower central series
quotients, which the generating-function formula reduces to Witt's
necklace count.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import index

from .complexes import WeightedComplex
from .errors import (
    ConditionFailed,
    HasTriangles,
    MissingTree,
    NonIntegerRank,
    NonPositive,
    ZeroWeightEdge,
)
from .record import Record

# ``exact`` and ``presentation`` are imported where they are called, so that
# ``classify`` loads neither, and called as module.function, so that a
# wrapper set on that module (as bench/spans.py sets them) sees every call.


class CyclicFactorization(Record):
    """A free product of cyclic groups as the sorted multiset of their
    orders: 0 encodes an infinite cyclic factor, m >= 2 a finite one."""

    orders: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.orders)
        # operator.index, not int: an order of 2.7 or "3" is a TypeError.
        finite = sorted(filter(None, map(index, raw)))
        object.__setattr__(self, "orders", (0,) * (len(raw) - len(finite)) + tuple(finite))
        # Sorted, so a negative order comes first.
        if (finite and finite[0] < 0) or 1 in finite:
            m = finite[0] if finite[0] < 0 else 1
            raise ValueError(f"cyclic order {m} is not normalized")

    @property
    def free_count(self) -> int:
        return self.orders.count(0)

    def __str__(self):
        # The zeros come first; the trivial group is "1".
        z = self.free_count
        return " * ".join(["Z"] * z + [f"Z/{m}" for m in self.orders[z:]]) or "1"


def normalize_factorization(raw: Iterable[int]) -> CyclicFactorization:
    """Take absolute values (Z/w and Z/-w coincide), drop order-1 factors,
    sort ascending with the infinite factors first."""
    return CyclicFactorization(tuple(m for m in (abs(index(m)) for m in raw) if m != 1))


def satisfies_exactly_two(complex: WeightedComplex) -> bool:
    """For every triangle, exactly two of its three edges lie in the tree.
    Vacuously true for graphs."""
    return _failing_triangle(complex.triangles, set(_tree_of(complex))) is None


def _tree_of(complex: WeightedComplex):
    if complex.tree is None:
        raise MissingTree("the exactly-two condition is relative to a tree")
    return complex.tree


def _failing_triangle(triangles, tree: set):
    for a, v, b in triangles:
        if ((a, v) in tree) + ((v, b) in tree) + ((a, b) in tree) != 2:
            return (a, v, b)
    return None


def classify(complex: WeightedComplex) -> CyclicFactorization:
    """Free-product-of-cyclics classification under the exactly-two
    condition: tree edges and non-tree triangle faces contribute |w|,
    remaining edges contribute an infinite factor."""
    return _tree_factors(complex)(_tree_of(complex))


def _tree_factors(complex: WeightedComplex):
    """``classify`` of the complex against any tree: the returned function
    takes a tree's (distinct) edge keys, raises ConditionFailed as classify
    does, and returns the tree's CyclicFactorization.  Faces and weights
    are read once, here.  A call walks the triangles and the tree's edges
    only: every face gives |w| whatever the tree, and each other edge
    outside the tree gives Z, so those Z factors are filled in by count."""
    faces = {face for a, v, b in complex.triangles for face in ((a, v), (v, b), (a, b))}
    face_orders = []
    others: dict[tuple[int, int], int] = {}  # |w| of each non-face edge
    for a, b, w in complex.edges:
        if (a, b) not in faces:
            others[a, b] = abs(w)
        elif abs(w) != 1:
            face_orders.append(abs(w))

    def factors(tree) -> CyclicFactorization:
        if complex.triangles:
            bad = _failing_triangle(complex.triangles, set(tree))
            if bad is not None:
                la, lv, lb = (complex.vertices[i] for i in bad)
                raise ConditionFailed(
                    f"exactly-two condition fails at triangle ({la},{lv},{lb})",
                    triangle=bad,
                )
        # An order 0 among the face and tree orders is a Z factor as well;
        # CyclicFactorization sorts it to the front with the counted ones.
        in_tree = [others[e] for e in tree if e in others]
        free = [0] * (len(others) - len(in_tree))
        return CyclicFactorization(tuple(free + face_orders + [m for m in in_tree if m != 1]))

    return factors


def abelianization(complex: WeightedComplex) -> AbelianGroup:
    """Abelianization of the weighted fundamental group, via the exponent
    sum matrix of the defining presentation."""
    from . import presentation
    return presentation.abelianized_group(presentation.present(complex))


class WeightedHomology(Record):
    h0: AbelianGroup
    h1: AbelianGroup


def weighted_homology_graph(complex: WeightedComplex) -> WeightedHomology:
    """Weighted H1 (kernel) and H0 (cokernel) of the boundary map sending
    edge [a, b] to w(ab)([b] - [a]); vertex weights are fixed at 1.
    Restricted to graphs with nonzero edge weights."""
    from . import exact
    if complex.triangles:
        raise HasTriangles("weighted homology is computed for graphs only")
    zero = next((e for e in complex.edges if e[2] == 0), None)
    if zero is not None:
        raise ZeroWeightEdge(f"edge ({zero[0]},{zero[1]}) has weight 0")
    # One greedy gives H0 and the boundary's rank; H1, its kernel, is free.
    n = len(complex.vertices)
    rank, torsion = exact.forest_torsion(n, [(a, b, abs(w)) for a, b, w in complex.edges])
    return WeightedHomology(h0=exact.AbelianGroup(n - rank, torsion),
                            h1=exact.AbelianGroup(len(complex.edges) - rank))


def lcs_free_ranks(g: CyclicFactorization, max_n: int) -> tuple[int, ...]:
    """Free ranks R_1..R_max_n of the lower-central-series quotients.

    R_1 is the number m of infinite factors.  For n > 1 the
    generating-function formula takes, for s factors of which the j-th
    contributes d_j in {0, 1} infinite generators,

        U(x) = 1 + (1-x)^(-m) * ((s - 1) - sum_j (1-x)^(d_j)),
        alpha_k = -(coefficient of x^k in log(1 - U(x))),
        R_n = (1/n) * sum over divisors k > 1 of n of mobius(n/k) * k * alpha_k.

    Every d_j is 0 or 1, so the bracket is (s - 1) - (s - m) - m(1 - x)
    = m*x - 1 and 1 - U = (1 - m*x) / (1-x)^m.  Then
    log(1 - U) = log(1 - m*x) - m*log(1 - x) gives alpha_k = (m^k - m)/k.
    The k = 1 term would be 0, so the sum may run over all divisors, and
    sum_{k | n} mobius(n/k) = 0 for n > 1 removes the -m part:

        R_n = (1/n) * sum_{k | n} mobius(n/k) * m^k = witt_rank(m, n),

    Witt's necklace count (Magnus, Karrass and Solitar, Combinatorial Group
    Theory, section 5.6).  The finite orders drop out: the ranks depend
    only on m."""
    if max_n < 1:
        raise NonPositive(f"max_n must be >= 1, got {max_n}")
    m = g.free_count
    return tuple(witt_rank(m, n) for n in range(1, max_n + 1))


def witt_rank(m: int, n: int) -> int:
    """Necklace count (1/n) sum_{d | n} mobius(d) m^(n/d): the free rank of
    the n-th lower-central quotient of a free group of rank m, and so of any
    free product of cyclic groups with m infinite factors.  mobius(d) is 0
    unless d is a product of k distinct primes, and then (-1)^k, so the sum
    runs over the sets of distinct primes of n, found by one trial
    division."""
    if n < 1:
        raise NonPositive(f"witt_rank needs n >= 1, got {n}")
    if m < 0:
        raise NonPositive(f"witt_rank needs m >= 0, got {m}")
    if n == 1:
        return m
    terms = [(1, 1)]  # (d, mobius(d)) for each squarefree divisor d of n
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            terms += [(d * p, -mu) for d, mu in terms]
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        terms += [(d * rest, -mu) for d, mu in terms]
    total = sum(mu * m ** (n // d) for d, mu in terms)
    if total % n != 0:
        raise NonIntegerRank(f"necklace sum {total} not divisible by {n}")
    return total // n
