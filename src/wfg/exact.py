"""Exact integer kernels.

Everything in this module is arbitrary precision: integer matrices
stored by their nonzeros, with a dense Smith normal form, finitely
generated abelian groups in invariant factor form, and a sparse kernel
that finds them from a relation matrix.  No floating point appears on
any computation path.

The sparse kernel picks its pivots from a heap with one key per row: the
least (|value|, Markowitz cost, row, column) over the row's entries.  The
least row key is the least entry key, so the pivots are those of a heap
with one key per entry, while a step pushes keys only for the rows whose
key it changed.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left
from collections.abc import Sequence
from functools import cached_property
from itertools import compress

from .complexes import UnionFind
from .errors import ShapeMismatch
from .record import Record


class IntegerMatrix(Record):
    """Integer matrix stored as its nonzeros: ``sparse_rows[i]`` holds the
    (column, value) pairs of row i in column order.  The dense row-major
    ``entries`` are built on first read, unless the matrix was built from
    them."""

    rows: int
    cols: int
    sparse_rows: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        # operator.index, not int: 2.9 or "7" is no integer entry.
        entries = tuple(map(operator.index, entries))
        positions = range(cols)
        sparse = tuple(tuple(zip(compress(positions, line), filter(None, line)))
                       for line in (entries[i * cols:(i + 1) * cols] for i in range(rows)))
        self.__dict__.update(rows=rows, cols=cols, sparse_rows=sparse, entries=entries)

    @classmethod
    def from_sparse_rows(cls, cols: int, rows: Sequence[dict[int, int]]) -> "IntegerMatrix":
        """The matrix with one row per {column: value} dict; zeros are dropped."""
        sparse = []
        for row in rows:
            pairs = sorted((j, operator.index(x)) for j, x in row.items())
            if pairs and not 0 <= pairs[0][0] <= pairs[-1][0] < cols:
                raise ShapeMismatch(f"a column of {row} is outside 0..{cols - 1}")
            sparse.append(tuple(pair for pair in pairs if pair[1]))
        matrix = cls.__new__(cls)
        matrix.__dict__.update(rows=len(sparse), cols=cols, sparse_rows=tuple(sparse))
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        if not rows:
            return cls(0, 0 if cols is None else cols, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("ragged rows")
        if cols is not None and cols != width:
            raise ShapeMismatch(f"rows have {width} columns, expected {cols}")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @cached_property
    def entries(self) -> tuple[int, ...]:
        c = self.cols
        out = [0] * (self.rows * c)
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                out[i * c + j] = x
        return tuple(out)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]


class SnfResult(Record):
    """Smith normal form U*A*V = D with U, V unimodular and D diagonal."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    def diagonal(self) -> list[int]:
        return [self.D.entry(i, i) for i in range(min(self.D.rows, self.D.cols))]


def smith_normal_form(A: IntegerMatrix) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Step t moves the smallest nonzero |entry| of the remaining submatrix
    (ties broken by position) to (t, t) and clears row t and column t by
    integer division.  Remainders can only sit in that row and column, so
    the next pivot is picked from there alone; |pivot| strictly shrinks.
    A pairwise gcd/lcm pass then makes the diagonal a divisor chain:
    while d_i does not divide d_j (i < j), adding row j to row i and
    clearing row and column i again leaves gcd(d_i, d_j) at (i, i) and
    lcm(d_i, d_j) at (j, j), with U and V kept exact.  The diagonal ends
    nonnegative with d1 | d2 | ... ; it is the unique Smith form of A.
    """
    m, n = A.rows, A.cols
    M = A.to_rows()
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def move(t, i, j):
        """Swap row i with row t and column j with column t."""
        M[t], M[i] = M[i], M[t]
        U[t], U[i] = U[i], U[t]
        for rows in (M, V):
            for row in rows:
                row[t], row[j] = row[j], row[t]

    def add_row(dst, src, factor):
        M[dst] = [x + factor * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x + factor * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, factor):
        for rows in (M, V):
            for row in rows:
                row[dst] += factor * row[src]

    def clear(t):
        """Zero row t and column t outside the pivot (t, t)."""
        while True:
            pivot = M[t][t]
            for i in range(t + 1, m):
                if M[i][t]:
                    add_row(i, t, -(M[i][t] // pivot))
            for j in range(t + 1, n):
                if M[t][j]:
                    add_col(j, t, -(M[t][j] // pivot))
            line = [(abs(M[t][j]), t, j) for j in range(t + 1, n) if M[t][j]]
            line += [(abs(M[i][t]), i, t) for i in range(t + 1, m) if M[i][t]]
            if not line:
                return
            move(t, *min(line)[1:])

    for t in range(min(m, n)):
        # Smallest nonzero |entry| of the remaining submatrix, first by
        # position; each row is reduced to its own minimum first.
        lows = [min(map(abs, filter(None, M[i][t:])), default=0) for i in range(t, m)]
        low = min(filter(None, lows), default=0)
        if not low:
            break
        i = t + lows.index(low)
        move(t, i, t + list(map(abs, M[i][t:])).index(low))
        clear(t)
    rank = sum(1 for t in range(min(m, n)) if M[t][t])
    for i in range(rank):
        for j in range(i + 1, rank):
            while M[j][j] % M[i][i]:
                add_row(i, j, 1)
                clear(i)
        # No later step touches row or column i again.
        if M[i][i] < 0:
            M[i] = [-x for x in M[i]]
            U[i] = [-x for x in U[i]]

    return SnfResult(
        U=IntegerMatrix.from_rows(U, m),
        D=IntegerMatrix.from_rows(M, n),
        V=IntegerMatrix.from_rows(V, n),
    )


class AbelianGroup(Record):
    """Finitely generated abelian group: Z^free_rank + Z/d1 + ... + Z/dk
    with 2 <= d1 | d2 | ... | dk (invariant factors)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        # operator.index, not int: a rank of 1.5 or a factor of 2.9 is a TypeError.
        object.__setattr__(self, "free_rank", operator.index(self.free_rank))
        object.__setattr__(self, "torsion", tuple(map(operator.index, self.torsion)))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbelianGroup":
        """Direct sum of cyclic groups (order 0 meaning Z), recombined into
        invariant factors by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).  Each
        order is inserted into the divisor chain built so far, walking down
        from its largest factor d: d becomes lcm(d, carry) and the carry
        gcd(d, carry), until the carry is 1; a carry left over becomes the
        new smallest factor.  For each prime this is an insertion sort of
        the exponents, so the chain is the unique invariant-factor form.
        A factor the carry divides is left as it is, and those factors form
        a prefix of what is left of the chain, so bisection jumps to the
        next factor that changes; the carry strictly falls there."""
        orders = [abs(operator.index(m)) for m in orders]
        chain: list[int] = []  # largest factor first
        for carry in orders:
            j = 0
            while carry > 1:
                j = bisect_left(chain, True, j, key=lambda d: d % carry != 0)
                if j == len(chain):
                    chain.append(carry)
                    break
                chain[j], carry = math.lcm(chain[j], carry), math.gcd(chain[j], carry)
                j += 1
        return cls(orders.count(0), tuple(reversed(chain)))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def abelian_group_from_matrix(A: IntegerMatrix) -> AbelianGroup:
    """Cokernel of A^T: the group Z^A.cols modulo the row space of A, one
    generator per column.

    Up to isomorphism the group is fixed by the Smith diagonal of A alone;
    U and V would only name its generators.  So no transform is kept, and
    a sparse elimination works on the nonzeros: one dict {column: value}
    per row, and the set of rows that use each column.  Each step pivots
    on the entry of least key (|value|, Markowitz cost (r-1)(c-1) for r
    nonzeros in its row and c in its column, row, column), so unit pivots
    come first.  The heap holds one key per row, the least key of its
    entries, and ``current`` maps each row to its live key; a popped key
    that is not the live one is stale and skipped.  An entry's key changes
    only when its row changes or its column gains or loses a user, so
    after each step only the changed rows are scanned again, and the
    other users of a column whose count changed compare the key of their
    entry in it with their row key.  A key is pushed only when it changed.
    The least row key is the least entry key, so the pivots are exactly
    those of a heap holding every entry.  Row operations reduce the pivot
    column modulo the pivot p.  Once the column is clear, a column
    operation changes the pivot row alone, so the row is reduced modulo p
    in place; if nothing is left but p, row and column split off as the
    diagonal entry |p|.  A unit pivot always splits, which is the matrix
    form of the Tietze move that drops a generator and its relator g^(+-1).
    Any remainder is smaller than |p|, so the least |entry| strictly falls
    until the next split.  The 1s are then dropped and the rest recombined
    into invariant factors by ``AbelianGroup.from_cyclic_orders``.
    """
    n = A.cols
    rows = {i: dict(row) for i, row in enumerate(A.sparse_rows) if row}
    users: list[set[int]] = [set() for _ in range(n)]
    for i, row in rows.items():
        for j in row:
            users[j].add(i)

    def key(i):
        row = rows[i]
        # Within one row the cost (len(row) - 1)(c - 1) orders as c does.
        size, count, j = min((abs(x), len(users[j]), j) for j, x in row.items())
        return (size, (len(row) - 1) * (count - 1), i, j)

    current = {i: key(i) for i in rows}
    heap = list(current.values())
    heapq.heapify(heap)
    orders = []
    while heap:
        entry = heapq.heappop(heap)
        r, c = entry[2:]
        if current.get(r) is not entry:
            continue  # a later push holds this row's live key
        del current[r]
        pivot = rows[r]
        p = pivot[c]
        columns = list(pivot)
        counts = [len(users[j]) for j in columns]
        touched = {r}
        for i in users[c] - touched:
            row = rows[i]
            f = row[c] // p
            for j, x in pivot.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    users[j].add(i)
                else:
                    del row[j]
                    users[j].discard(i)
            if not row:
                del rows[i]
            touched.add(i)
        if len(users[c]) == 1:
            # Column c is clear, so a column operation changes row r alone.
            for j in columns:
                if j != c:
                    pivot[j] %= p
                    if not pivot[j]:
                        del pivot[j]
                        users[j].discard(r)
            if len(pivot) == 1:
                orders.append(abs(p))
                del rows[r]
                users[c].clear()
        # In an untouched row only the entry in column j changed its key.
        # A cheaper entry may become the row key; a dearer one matters only
        # if it was the row key, and then the row is scanned again.
        for j, count in zip(columns, counts):
            now = len(users[j])
            if now == count:
                continue
            for i in users[j] - touched:
                if now > count:
                    if current[i][3] == j:
                        touched.add(i)
                    continue
                row = rows[i]
                k = (abs(row[j]), (len(row) - 1) * (now - 1), i, j)
                if k < current[i]:
                    current[i] = k
                    heapq.heappush(heap, k)
        for i in touched:
            if i in rows:
                k = key(i)
                if current.get(i) != k:
                    current[i] = k
                    heapq.heappush(heap, k)
            else:
                current.pop(i, None)
    torsion = [d for d in orders if d != 1]
    return AbelianGroup.from_cyclic_orders([0] * (n - len(orders)) + torsion)


def forest_torsion(nodes: int, edges, orders=()) -> tuple[int, tuple[int, ...]]:
    """The rank and the invariant factors (ascending, each > 1) of the
    relations o*e_o for each order o > 0 in ``orders`` and w*(e_b - e_a)
    for each edge (a, b, w), w > 0, of a graph on ``nodes`` nodes (rows of
    a node may be left out: the columns' matroid stays the graph's).  The
    rank counts the edges alone.

    The incidence matrix is totally unimodular, so d_1...d_k is the gcd,
    over k-sets of the orders and a forest's edges, of the product of
    their weights.  For a prime p the greedy (Kruskal) forest in ascending
    p-valuation reaches the least valuation for every k at once (the
    matroid greedy property; the orders are in every basis), so the
    p-parts of the factors are p to the valuations it accepts.  The
    elements q of a coprime base of the weights stand in for the primes.
    A prime that divides no weight of one basis adds nothing, since the
    edges it does not divide already span, so the base is built only from
    the part of each weight made of that basis's primes."""
    forest = UnionFind(nodes)
    # Least weights first, so that the product has few primes.
    edges = sorted(edges, key=lambda e: e[2])
    spans = [forest.union(a, b) for a, b, _ in edges]
    product = math.prod(orders) * math.prod(e[2] for e, s in zip(edges, spans) if s)
    # The forest first: the greedy below stops once it spans.
    edges = [e for e, s in zip(edges, spans) if s] + [e for e, s in zip(edges, spans) if not s]
    factors: list[int] = []  # largest first
    weights = {w for *_, w in edges}
    for q in _coprime_base({_shared_part(w, product) for w in weights}.union(orders)):
        found = [_valuation(o, q) for o in orders if not o % q]
        greedy = UnionFind(nodes)
        for i in range(0, len(edges), 256):
            if greedy.components == forest.components:
                break
            greedy.union_all((a, b) for a, b, w in edges[i:i + 256] if w % q)
        if greedy.components > forest.components:
            found += [c for c, a, b in sorted((_valuation(w, q), a, b)
                                              for a, b, w in edges if not w % q)
                      if greedy.union(a, b)]
        found.sort(reverse=True)
        factors += [1] * (len(found) - len(factors))
        for i, c in enumerate(found):
            factors[i] *= q ** c
    return nodes - forest.components, tuple(reversed(factors))


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime numbers > 1 whose powers make up each of the given
    positive numbers, by splitting on common factors: a and b with
    g = gcd(a, b) > 1 are replaced by g, a/g and b/g (Bernstein,
    "Factoring into coprimes in essentially linear time", 2005, in its
    simple quadratic form)."""
    base: list[int] = []
    for n in numbers:
        pending = [n]
        while pending:
            a = pending.pop()
            if a == 1:
                continue
            for i, b in enumerate(base):
                g = math.gcd(a, b)
                if g > 1:
                    base[i] = base[-1]
                    base.pop()
                    pending += (g, a // g, b // g)
                    break
            else:
                base.append(a)
    return base


def _shared_part(n: int, m: int) -> int:
    """The largest divisor of n whose primes all divide m."""
    part, g = 1, math.gcd(n, m)
    while g > 1:
        part *= g
        n //= g
        g = math.gcd(n, g)
    return part


def _valuation(n: int, q: int) -> int:
    """The largest c with q^c dividing n (n nonzero, q > 1)."""
    c = 0
    while not n % q:
        n //= q
        c += 1
    return c

