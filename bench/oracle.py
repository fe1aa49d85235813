"""Expected results for every op, computed without calling ``wfg``.

``check(verb, doc, args, code, stdout)`` returns None when the op's exit code
and ``--json`` output agree with what the document implies, else a one-line
reason. The oracles:

* classification: |w| on tree edges and triangle faces, Z elsewhere;
* abelianization under the exactly-two condition: gcd/lcm recombination of
  those orders into invariant factors;
* any other abelianization: ranks of the relation matrix modulo a large
  prime (free rank) and modulo 2, 3, 5 and 7 (how many invariant factors
  each prime divides);
* homology: H1 = Z^(E-V+1), H0 of free rank 1 with its torsion primes from
  the same rank counts;
* LCS ranks: the necklace count (1/n) sum_{d|n} mu(d) m^(n/d);
* van Kampen: both abelianizations equal and match the oracle for L;
* Hamiltonian trees: every listed tree is a distinct Hamiltonian path, their
  number is the path count of a bitmask recursion (n!/2 on K_n), and each
  tree's factorization is |w| on path edges and Z elsewhere;
* filtration: each stage classified as above, events are the multiset
  differences of consecutive stages (which conserves factors).
"""

from __future__ import annotations

import json
import math
from collections import Counter

from corpus import UnionFind, bfs_tree

BIG_PRIME = (1 << 61) - 1
SMALL_PRIMES = (2, 3, 5, 7)
HAMILTONIAN_VERTEX_LIMIT = 14


class Complex:
    def __init__(self, doc: dict):
        self.n = len(doc["vertices"])
        self.edges = sorted((e["a"], e["b"], e["w"]) for e in doc["edges"])
        self.keys = [(a, b) for a, b, _ in self.edges]
        self.weight = {(a, b): w for a, b, w in self.edges}
        self.triangles = sorted(tuple(t) for t in doc.get("triangles", []))
        stored = doc.get("tree")
        tree = bfs_tree(self.n, self.keys) if stored is None else stored
        self.tree = {tuple(e) for e in tree}


def _faces(t):
    a, v, b = t
    return ((a, v), (v, b), (a, b))


def exactly_two(cx: Complex) -> bool:
    return all(sum(e in cx.tree for e in _faces(t)) == 2 for t in cx.triangles)


def normalize(raw) -> list:
    return sorted(abs(m) for m in raw if abs(m) != 1)


def classification(cx: Complex, tree=None) -> list:
    tree = cx.tree if tree is None else tree
    faces = {e for t in cx.triangles for e in _faces(t)}
    return normalize(w if (a, b) in tree or (a, b) in faces else 0
                     for a, b, w in cx.edges)


def factorization_text(orders) -> str:
    return " * ".join("Z" if m == 0 else f"Z/{m}" for m in orders) or "1"


def invariant_factors(orders):
    """(free rank, invariant factors) of the direct sum of cyclic groups."""
    finite = [m for m in orders if m >= 2]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            g = math.gcd(finite[i], finite[j])
            finite[i], finite[j] = g, finite[i] * finite[j] // g
    return sum(1 for m in orders if m == 0), [d for d in finite if d >= 2]


def group_text(rank: int, torsion) -> str:
    parts = [] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"]
    parts += [f"Z/{d}" for d in torsion]
    return " ⊕ ".join(parts) or "0"


def relation_rows(cx: Complex) -> list:
    """Exponent-sum rows of the defining presentation, as {column: entry};
    each relator names each generator at most once."""
    return [dict(word) for word in expected_presentation(cx)["relators"]]


def rank_mod(rows, q: int) -> int:
    """Rank over Z/q of a sparse integer matrix, by row elimination."""
    pivots: dict[int, dict] = {}
    for source in rows:
        row = {c: x % q for c, x in source.items() if x % q}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, q)
                pivots[c] = {k: x * inv % q for k, x in row.items()}
                break
            f = row[c]
            for k, x in pivot.items():
                y = (row.get(k, 0) - f * x) % q
                if y:
                    row[k] = y
                else:
                    row.pop(k, None)
    return len(pivots)


def check_group(got: dict, n_cols: int, rows, exact=None):
    """Compare an abelian-group payload with the rank oracle of the relation
    matrix (and with the exact answer when one is known)."""
    rank, torsion = got["free_rank"], got["invariant_factors"]
    if got["text"] != group_text(rank, torsion):
        return f"group text {got['text']!r} does not match its fields"
    if exact is not None and (rank, torsion) != exact:
        return f"group {got['text']} != expected {group_text(*exact)}"
    if any(d < 2 for d in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        return f"invariant factors {torsion} are not a divisor chain"
    r = rank_mod(rows, BIG_PRIME)
    if rank != n_cols - r:
        return f"free rank {rank} != {n_cols - r}"
    for q in SMALL_PRIMES:
        divisible = sum(1 for d in torsion if d % q == 0)
        want = r - rank_mod(rows, q)
        if divisible != want:
            return f"{divisible} invariant factors divisible by {q}, expected {want}"
    return None


def mobius(n: int) -> int:
    result, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return result


def witt_rank(m: int, n: int) -> int:
    return sum(mobius(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def hamiltonian_path_count(n: int, keys) -> int:
    """Undirected Hamiltonian paths, by recursion over (visited set, end)."""
    if n == 1:
        return 1
    nbr = [0] * n
    for a, b in keys:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    ways = [dict() for _ in range(1 << n)]
    for v in range(n):
        ways[1 << v][v] = 1
    for mask in range(1, 1 << n):
        for v, c in ways[mask].items():
            free = nbr[v] & ~mask
            while free:
                low = free & -free
                nxt = ways[mask | low]
                u = low.bit_length() - 1
                nxt[u] = nxt.get(u, 0) + c
                free ^= low
    return sum(ways[(1 << n) - 1].values()) // 2


def _spanning_tree(n: int, edges, key_set) -> bool:
    if len(edges) != n - 1 or any(e not in key_set for e in edges):
        return False
    uf = UnionFind(n)
    return all(uf.union(a, b) for a, b in edges)


def _is_hamiltonian_path(n: int, edges, key_set) -> bool:
    degree = Counter(v for e in edges for v in e)
    return max(degree.values(), default=0) <= 2 and _spanning_tree(n, edges, key_set)


# ---------------------------------------------------------------------------
# Per-verb checks: the expected exit code, and for exit 0 a payload check
# that returns None or a reason.

def _complex_verb(verb, cx: Complex, args, out):
    if verb == "validate":
        return 0, lambda: None if out() == {"ok": True, "violations": []} else "not ok"
    if verb == "tree":
        def tree():
            got = out()
            edges = [tuple(e) for e in got["edges"]]
            if got["strategy"] != "bfs":
                return f"strategy {got['strategy']}"
            if not _spanning_tree(cx.n, edges, set(cx.keys)):
                return "not a spanning tree"
            return None
        return 0, tree
    if verb == "present":
        return 0, lambda: None if out() == expected_presentation(cx) else "presentation differs"
    if verb == "abelianize":
        exact = invariant_factors(classification(cx)) if exactly_two(cx) else None
        return 0, lambda: check_group(out(), len(cx.keys), relation_rows(cx), exact)
    if verb == "homology":
        if cx.triangles or any(w == 0 for _, _, w in cx.edges):
            return 2, None
        return 0, lambda: _check_homology(cx, out())
    if verb == "hamiltonian":
        if cx.triangles or cx.n > HAMILTONIAN_VERTEX_LIMIT:
            return 2, None
        return 0, lambda: _check_hamiltonian(cx, out())
    if not exactly_two(cx):
        return 2, None
    orders = classification(cx)
    if verb == "classify":
        want = {"factors": orders, "text": factorization_text(orders)}
        return 0, lambda: None if out() == want else f"factors != {orders}"
    if verb == "lcs":
        max_n = int(args[args.index("--max-n") + 1]) if "--max-n" in args else 6
        m = orders.count(0)
        ranks = [witt_rank(m, n) for n in range(1, max_n + 1)]
        text = " ".join(f"R{i + 1}={r}" for i, r in enumerate(ranks))
        want = {"factors": orders, "ranks": ranks, "text": text}
        return 0, lambda: None if out() == want else f"ranks != {ranks}"
    raise ValueError(f"no oracle for verb {verb!r}")


def _generator_label(a: int, b: int) -> str:
    return f"g{a}{b}" if a < 10 and b < 10 else f"g{a}_{b}"


def expected_presentation(cx: Complex) -> dict:
    index = {k: i for i, k in enumerate(cx.keys)}
    relators = [[[index[k], cx.weight[k]]] for k in cx.keys if k in cx.tree and cx.weight[k]]
    for a, v, b in cx.triangles:
        word = [[index[(a, b)], -cx.weight[(a, b)]], [index[(a, v)], cx.weight[(a, v)]],
                [index[(v, b)], cx.weight[(v, b)]]]
        word = [s for s in word if s[1]]
        if word:
            relators.append(word)
    return {"generators": [_generator_label(a, b) for a, b in cx.keys], "relators": relators}


def _check_homology(cx: Complex, got: dict):
    h1, h0 = got["h1"], got["h0"]
    if h1["free_rank"] != len(cx.edges) - cx.n + 1 or h1["invariant_factors"]:
        return f"H1 = {h1['text']}, expected Z^{len(cx.edges) - cx.n + 1}"
    if h0["free_rank"] != 1:
        return f"H0 = {h0['text']} has free rank {h0['free_rank']}"
    rows = [{a: -w, b: w} for a, b, w in cx.edges]
    return check_group(h0, cx.n, rows)


def _check_hamiltonian(cx: Complex, got: dict):
    trees = [tuple(tuple(e) for e in t) for t in got["trees"]]
    key_set = set(cx.keys)
    if got["count"] != len(trees) or trees != sorted(set(trees)):
        return "trees are not a sorted list of distinct trees"
    want = math.factorial(cx.n) // 2 if len(cx.keys) == cx.n * (cx.n - 1) // 2 \
        else hamiltonian_path_count(cx.n, cx.keys)
    if cx.n > 1 and len(trees) != want:
        return f"{len(trees)} Hamiltonian trees, expected {want}"
    if any(not _is_hamiltonian_path(cx.n, t, key_set) for t in trees):
        return "a listed tree is not a Hamiltonian path"
    invariants = [factorization_text(classification(cx, set(t))) for t in trees]
    if got["invariants"] != invariants:
        return "per-tree factorizations differ"
    if got["used_abelianization"] or \
            got["distinguishable"] != (len(set(invariants)) > 1):
        return "discrimination flags differ"
    return None


def _check_cover(doc: dict, got: dict):
    L = Complex(doc["L"])
    if not got["hypotheses_ok"] or got["violations"] or not got["tree_union_ok"] \
            or not got["tree_intersection_ok"]:
        return "cover hypotheses reported as failing"
    if not got["abelianizations_equal"] or \
            got["abelianization_amalgamated"] != got["abelianization_direct"]:
        return "abelianizations differ"
    exact = invariant_factors(classification(L)) if exactly_two(L) else None
    reason = check_group(got["abelianization_direct"], len(L.keys), relation_rows(L), exact)
    if reason:
        return reason
    if exact is None:
        return None if got["factorizations"] is None else "unexpected factorizations"
    orders = classification(L)
    if got["factorizations"] != {"direct": orders, "from_cover": orders}:
        return f"factorizations != {orders}"
    return None


def _check_filtration(doc: dict, got: dict):
    regions = {int(k): v for k, v in doc.get("regions", {}).items()}
    stages = [classification(Complex(s)) for s in doc["stages"]]
    if got["stages"] != stages:
        return "stage factorizations differ"
    events = []
    for i in range(1, len(stages)):
        old, new = Counter(stages[i - 1]), Counter(stages[i])
        for kind, diff in (("death", old - new), ("birth", new - old)):
            events += [{"stage": i, "kind": kind, "factor": m,
                        "region": regions.get(m, "unknown") if m else "unknown"}
                       for m in sorted(diff.elements())]
    if got["events"] != events or got["abelian_fallback_stages"]:
        return "events differ"
    for i in range(1, len(stages)):
        balance = Counter(got["stages"][i - 1])
        for e in got["events"]:
            if e["stage"] == i:
                balance[e["factor"]] += 1 if e["kind"] == "birth" else -1
        if +balance != Counter(got["stages"][i]):
            return f"events do not conserve factors at stage {i}"
    return None


def check(verb: str, doc: dict, args, code: int, stdout: str):
    def out():
        return json.loads(stdout)

    if "stages" in doc:
        expect, payload = 0, lambda: _check_filtration(doc, out())
    elif "L" in doc:
        expect, payload = 0, lambda: _check_cover(doc, out())
    else:
        expect, payload = _complex_verb(verb, Complex(doc), tuple(args), out)
    if code != expect:
        return f"exit code {code}, expected {expect}"
    if payload is None:
        return None
    try:
        return payload()
    except (ValueError, KeyError, TypeError) as err:
        return f"malformed output: {err!r}"
