"""Seeded input generators and the op schedule of each workload.

Every document is built here as plain JSON, so the program under test only
ever sees files. The random complex, graph, cover and filtration generators
are copies of the ones in ``tests/helpers.py``, kept here so that edits to
the tests cannot change the benchmark's inputs. Nothing in this module
imports ``wfg``.
"""

from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

WORKLOADS = ("grid-snf", "small-docs", "hamiltonian")

FIGURES = (
    "figure1-w0-2.json", "figure1.json", "figure2.json", "figure3.json",
    "figure4-cover-w1.json", "figure4-cover.json", "figure5-filtration.json",
    "figure6-hexagon.json", "figure6-pentagon.json",
)
COMPLEX_FIGURE_VERBS = ("validate", "tree", "present", "classify", "abelianize",
                        "homology", "lcs", "hamiltonian")
LCS_ARGS = ("--max-n", "8")


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def complex_doc(vertices, edges: dict, triangles=(), tree=None) -> dict:
    """JSON document of a complex; ``edges`` maps (a, b) with a < b to a weight."""
    doc = {
        "vertices": list(vertices),
        "edges": [{"a": a, "b": b, "w": w} for (a, b), w in sorted(edges.items())],
        "triangles": [list(t) for t in sorted(triangles)],
    }
    if tree is not None:
        doc["tree"] = [list(e) for e in sorted(tree)]
    return doc


def bfs_tree(n: int, edge_keys) -> list:
    """Breadth-first tree from vertex 0, neighbours in ascending order."""
    nbrs = {v: [] for v in range(n)}
    for a, b in edge_keys:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    tree = []
    while queue:
        v = queue.popleft()
        for u in sorted(nbrs[v]):
            if not seen[u]:
                seen[u] = True
                tree.append((min(u, v), max(u, v)))
                queue.append(u)
    return tree


# ---------------------------------------------------------------------------
# Structured families: grids, split-grid covers, complete and sparse graphs.

def _grid(k: int, weight):
    """Vertices, edges and triangles of a k x k grid of squares, each square
    cut along its down-right diagonal; vertex (r, c) has index r*(k+1)+c."""
    side = k + 1
    labels = [f"v{r}_{c}" for r in range(side) for c in range(side)]
    edges, triangles = {}, []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c < k:
                edges[(v, v + 1)] = weight()
            if r < k:
                edges[(v, v + side)] = weight()
            if r < k and c < k:
                edges[(v, v + side + 1)] = weight()
                triangles.append((v, v + 1, v + side + 1))
                triangles.append((v, v + side, v + side + 1))
    return labels, edges, triangles


def triangulated_grid(rng, k: int) -> dict:
    """Weights in [-5, 5], breadth-first tree stored in the document."""
    labels, edges, triangles = _grid(k, lambda: rng.randint(-5, 5))
    return complex_doc(labels, edges, triangles, bfs_tree(len(labels), edges))


def grid_skeleton(rng, k: int) -> dict:
    """1-skeleton of the grid with weights in 2..9, so no entry of the
    boundary matrix is a unit."""
    labels, edges, _ = _grid(k, lambda: rng.randint(2, 9))
    return complex_doc(labels, edges)


def split_grid_cover(rng, k: int) -> dict:
    """The triangulated grid (k even) cut into two halves sharing the middle
    column. K0 is the middle column path with the path as its tree; each
    side's tree adds that side's horizontal edges to K0's tree."""
    labels, weights, triangles = _grid(k, lambda: rng.randint(-5, 5))
    side, mid = k + 1, k // 2

    def col(v):
        return v % side

    def piece(keep):
        kept = [v for v in range(side * side) if keep(col(v))]
        index = {v: i for i, v in enumerate(kept)}
        edges = {(index[a], index[b]): w for (a, b), w in weights.items()
                 if a in index and b in index}
        tris = [tuple(index[v] for v in t) for t in triangles
                if all(v in index for v in t)]
        tree = [(index[a], index[b]) for a, b in weights
                if a in index and b in index
                and ((col(a) == col(b) == mid) or (b == a + 1))]
        return complex_doc([labels[v] for v in kept], edges, tris, tree)

    return {
        "L": piece(lambda c: True),
        "K1": piece(lambda c: c <= mid),
        "K2": piece(lambda c: c >= mid),
        "K0": piece(lambda c: c == mid),
    }


def complete_graph(rng, n: int) -> dict:
    """K_n with pairwise distinct weights, no tree."""
    keys = [(a, b) for a in range(n) for b in range(a + 1, n)]
    weights = rng.sample(range(2, 2 + 4 * len(keys)), len(keys))
    return complex_doc([f"v{i}" for i in range(n)], dict(zip(keys, weights)))


def sparse_graph(rng, n: int) -> dict:
    """A connected simple graph with n - 6 vertices of degree 4 and six of
    degree 3 (2n - 3 edges), drawn by the configuration model. A fixed degree
    sequence keeps the number of Hamiltonian paths, and with it the cost of
    an op, within about 20% across graphs; a path plus random chords varies
    twentyfold."""
    stubs = [v for v in range(n) for _ in range(4 if v < n - 6 else 3)]
    while True:
        rng.shuffle(stubs)
        keys = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(keys) * 2 == len(stubs) and all(a != b for a, b in keys) \
                and len(bfs_tree(n, keys)) == n - 1:
            return complex_doc([f"v{i}" for i in range(n)],
                               {k: rng.randint(2, 30) for k in sorted(keys)})


# ---------------------------------------------------------------------------
# Copies of the random generators in tests/helpers.py, emitting documents.

def random_connected_graph(rng, min_v=2, max_v=10, weight_range=(-5, 5)):
    """Returns (n, {(a, b): w})."""
    n = rng.randint(min_v, max_v)
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.randint(*weight_range)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.setdefault((min(a, b), max(a, b)), rng.randint(*weight_range))
    return n, edges


def random_spanning_tree(n: int, edge_keys, rng) -> list:
    keys = sorted(edge_keys)
    rng.shuffle(keys)
    uf = UnionFind(n)
    return sorted(e for e in keys if uf.union(*e))


def random_graph_doc(rng, max_v=10) -> dict:
    """A random connected graph with nonzero weights, for ``homology``."""
    n, edges = random_connected_graph(rng, max_v=max_v, weight_range=(1, 9))
    edges = {e: w * rng.choice((1, -1)) for e, w in edges.items()}
    return complex_doc([f"v{i}" for i in range(n)], edges)


def random_exactly_two_complex(rng, max_v=8) -> dict:
    """Start from a graph with a tree, then glue triangles over pairs of
    tree edges that share a vertex (the closing edge stays outside the tree)."""
    n, edges = random_connected_graph(rng, min_v=3, max_v=max_v)
    tree = random_spanning_tree(n, edges, rng)
    tree_set = set(tree)
    triangles = set()
    tree_adjacent: dict[int, list[int]] = {}
    for a, b in tree:
        tree_adjacent.setdefault(a, []).append(b)
        tree_adjacent.setdefault(b, []).append(a)
    for _ in range(rng.randint(0, 4)):
        v = rng.randrange(n)
        nbrs = tree_adjacent.get(v, [])
        if len(nbrs) < 2:
            continue
        a, b = rng.sample(nbrs, 2)
        closing = (min(a, b), max(a, b))
        if closing in tree_set:
            continue
        edges.setdefault(closing, rng.randint(-5, 5))
        triangles.add(tuple(sorted((a, v, b))))
    return complex_doc([f"v{i}" for i in range(n)], edges, triangles, tree)


def random_cover(rng) -> dict:
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

        return complex_doc(
            ordered,
            {ek(k): weights[k] for k in edge_set},
            [tuple(sorted((index[x], index[y], index[z]))) for x, y, z in tri_set],
            [ek(k) for k in tree_set],
        )

    return {
        "L": build(set(vertices1) | set(vertices2), e1 | e2, t1 | t2, a1 | a2),
        "K1": build(vertices1, e1, t1, a1),
        "K2": build(vertices2, e2, t2, a2),
        "K0": build(core, e0, t0, a0),
    }


def random_filtration(rng, max_vertices=8, max_stages=4) -> dict:
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
        edges = {e: w for e, w in final_edges.items() if e[1] < size}
        tree = random_spanning_tree(size, edges, rng)
        stages.append(complex_doc([f"v{i}" for i in range(size)], edges, (), tree))
    return {"stages": stages}


# ---------------------------------------------------------------------------
# Workloads. A schedule is a list of ops (verb, document path, extra args).
# grid-snf and hamiltonian repeat a fixed pattern of op kinds with fresh
# documents, so a run that stops part-way through measures the same mix;
# small-docs is short enough that a run goes through it many times.

GRID_PATTERN = (("abelianize", 6), ("abelianize", 7), ("abelianize", 8),
                ("homology", 6), ("homology", 7), ("homology", 8),
                ("vankampen", 6), ("vankampen", 8))
GRID_REPEATS = 10
GRID_BUILDERS = {"abelianize": triangulated_grid, "homology": grid_skeleton,
                 "vankampen": split_grid_cover}


def _grid_snf(rng, put):
    return [(verb, put(f"{verb}-k{k}-{rep}", GRID_BUILDERS[verb](rng, k)), ())
            for rep in range(GRID_REPEATS) for verb, k in GRID_PATTERN]


SMALL_COMPLEXES = 100
SMALL_GRAPHS = 40
SMALL_COVERS = 40
SMALL_FILTRATIONS = 40


def _small_docs(rng, put, figures_dir: Path):
    ops = []
    for i in range(SMALL_COMPLEXES):
        path = put(f"complex-{i}", random_exactly_two_complex(rng, max_v=12))
        for verb in ("validate", "tree", "present", "classify", "abelianize"):
            ops.append((verb, path, ()))
        ops.append(("lcs", path, LCS_ARGS))
        if i < SMALL_GRAPHS:
            ops.append(("homology", put(f"graph-{i}", random_graph_doc(rng)), ()))
        if i < SMALL_COVERS:
            ops.append(("vankampen", put(f"cover-{i}", random_cover(rng)), ()))
        if i < SMALL_FILTRATIONS:
            ops.append(("filtration", put(f"filtration-{i}", random_filtration(rng)), ()))
    ops.extend(figure_ops(figures_dir))
    return ops


def figure_ops(figures_dir: Path):
    ops = []
    for name in FIGURES:
        path = str(figures_dir / name)
        if "cover" in name:
            ops.append(("vankampen", path, ()))
        elif "filtration" in name:
            ops.append(("filtration", path, ()))
        else:
            ops.extend((verb, path, LCS_ARGS if verb == "lcs" else ())
                       for verb in COMPLEX_FIGURE_VERBS)
    return ops


HAMILTONIAN_BLOCK = ((7, complete_graph), (14, sparse_graph), (14, sparse_graph))
HAMILTONIAN_BLOCKS = 40


def _hamiltonian(rng, put):
    """One K8 first, for its memory peak, then blocks of lighter graphs."""
    ops = [("hamiltonian", put("complete-n8", complete_graph(rng, 8)), ())]
    for rep in range(HAMILTONIAN_BLOCKS):
        for i, (n, build) in enumerate(HAMILTONIAN_BLOCK):
            ops.append(("hamiltonian", put(f"{build.__name__}-n{n}-{rep}-{i}", build(rng, n)), ()))
    return ops


def build_workload(workload: str, seed: int, out_dir: Path, figures_dir: Path):
    """Write the workload's documents into ``out_dir`` and return its schedule."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)

    def put(name, doc):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    if workload == "grid-snf":
        return _grid_snf(rng, put)
    if workload == "small-docs":
        return _small_docs(rng, put, figures_dir)
    if workload == "hamiltonian":
        return _hamiltonian(rng, put)
    raise ValueError(f"unknown workload {workload!r}")
