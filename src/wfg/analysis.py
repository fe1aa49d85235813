"""Application workflows.

Filtration tracking: classify each stage, diff consecutive factorizations
as multisets, and label finite births/deaths with a user-supplied
weight-to-region map.  Hamiltonian paths double as maximal trees (sorted
tuples of edge keys, like a stored or built tree), so enumerating them and
classifying the complex against each tree can tell different paths apart.
The two ring builders reproduce the pentagon and hexagon bond patterns used
in the fullerene demonstration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .complexes import (
    Tree,
    WeightedComplex,
    _tree_violations,
    complex_from_json,
    ensure_tree,
    is_weighted_subcomplex,
)
from .errors import (
    BadTree,
    ConditionFailed,
    NotAGraph,
    NotNested,
    SchemaError,
    TooLarge,
)
from .invariants import (
    CyclicFactorization,
    _tree_classifier,
    abelianization,
    classify,
    normalize_factorization,
)

UNKNOWN_REGION = "unknown"

HAMILTONIAN_VERTEX_LIMIT = 14

# Partial paths the enumeration may visit: K9 takes 986,409, while K14,
# within the vertex limit, would take about 2.4e11.
HAMILTONIAN_PATH_BUDGET = 2_000_000


@dataclass(frozen=True)
class Filtration:
    stages: tuple[WeightedComplex, ...]
    region_map: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "region_map", dict(self.region_map))


@dataclass(frozen=True)
class BirthDeathEvent:
    stage: int
    kind: str  # "birth" or "death"
    factor: int  # 0 for an infinite cyclic factor, m >= 2 otherwise
    region: str


@dataclass(frozen=True)
class FiltrationAnalysis:
    stage_factors: tuple[CyclicFactorization, ...]
    events: tuple[BirthDeathEvent, ...]
    abelian_fallback_stages: tuple[int, ...]


def _stage_factors(stage: WeightedComplex, index: int, fallback_abelian: bool):
    prepared = ensure_tree(stage)
    try:
        return classify(prepared), False
    except ConditionFailed as err:
        if not fallback_abelian:
            raise ConditionFailed(
                f"stage {index}: {err}", triangle=err.triangle, stage=index
            ) from err
        ab = abelianization(prepared)
        return normalize_factorization([0] * ab.free_rank + list(ab.torsion)), True


def analyze_filtration(f: Filtration, fallback_abelian: bool = False) -> FiltrationAnalysis:
    """Births and deaths of cyclic factors between consecutive stages.

    A factor added at stage i is a birth at i, a factor removed is a death.
    Finite factors are mapped to regions through the weight-value map;
    infinite factors are always region "unknown".  Stages without a tree
    get a breadth-first one.
    """
    for i in range(len(f.stages) - 1):
        if not is_weighted_subcomplex(f.stages[i], f.stages[i + 1], check_tree=False):
            raise NotNested(f"stage {i} is not a weighted subcomplex of stage {i + 1}")

    factors = []
    fallback_stages = []
    for i, stage in enumerate(f.stages):
        fac, fell_back = _stage_factors(stage, i, fallback_abelian)
        factors.append(fac)
        if fell_back:
            fallback_stages.append(i)

    events = []
    for i in range(1, len(factors)):
        old = Counter(factors[i - 1].orders)
        new = Counter(factors[i].orders)
        for m in sorted((old - new).elements()):
            events.append(BirthDeathEvent(i, "death", m, _region(f.region_map, m)))
        for m in sorted((new - old).elements()):
            events.append(BirthDeathEvent(i, "birth", m, _region(f.region_map, m)))

    return FiltrationAnalysis(tuple(factors), tuple(events), tuple(fallback_stages))


def _region(region_map: dict[int, str], factor: int) -> str:
    if factor == 0:
        return UNKNOWN_REGION
    return region_map.get(factor, UNKNOWN_REGION)


def enumerate_hamiltonian_trees(complex: WeightedComplex) -> list[Tree]:
    """All Hamiltonian paths of a graph, each returned as its sorted edge keys.

    A path and its reverse give the same tree; only the direction with
    path[0] <= path[-1] is reported.  Output is sorted lexicographically by
    edge list.  The backtracking raises TooLarge once it has visited more
    than HAMILTONIAN_PATH_BUDGET partial paths.
    """
    if complex.triangles:
        raise NotAGraph("Hamiltonian enumeration expects a graph")
    n = len(complex.vertices)
    if n > HAMILTONIAN_VERTEX_LIMIT:
        raise TooLarge(f"{n} vertices exceeds the limit of {HAMILTONIAN_VERTEX_LIMIT}")
    full = (1 << n) - 1
    # (neighbour, its bit, the edge key to it) for each vertex.
    steps = [tuple((u, 1 << u, (min(u, v), max(u, v))) for u in complex.adjacency[v])
             for v in range(n)]
    found: list[Tree] = []
    path: list[tuple[int, int]] = []  # edge keys of the current path
    count = 0

    def extend(v: int, visited: int):
        nonlocal count
        count += 1
        if count > HAMILTONIAN_PATH_BUDGET:
            raise TooLarge(f"Hamiltonian enumeration stopped at {count} partial "
                           f"paths, past the budget of {HAMILTONIAN_PATH_BUDGET}")
        if visited == full:
            if start <= v:  # equal only for the one-vertex path
                found.append(tuple(sorted(path)))
            return
        for u, bit, key in steps[v]:
            if not visited & bit:
                path.append(key)
                extend(u, visited | bit)
                path.pop()

    for start in range(n):
        extend(start, 1 << start)
    return sorted(found)


@dataclass(frozen=True)
class TreeDiscriminationReport:
    trees: tuple[Tree, ...]
    invariants: tuple
    distinguishable: bool
    used_abelianization: bool


def discriminate_trees(
    complex: WeightedComplex, trees: Iterable[Tree]
) -> TreeDiscriminationReport:
    """Classify the complex against each maximal tree; the trees are
    distinguishable when the resulting invariants are not all equal.

    When any tree fails the exactly-two condition, abelianizations are used
    for every tree so the comparison stays within one invariant."""
    trees = tuple(trees)
    n, known_edges = len(complex.vertices), set(complex.edge_keys)
    for t in trees:
        if _tree_violations(n, known_edges, t):
            raise BadTree(f"{t} is not a maximal tree of the complex")

    factors = _tree_classifier(complex)
    try:
        invariants = tuple(factors(t) for t in trees)
        used_abelianization = False
    except ConditionFailed:
        invariants = tuple(abelianization(complex.with_tree(t)) for t in trees)
        used_abelianization = True

    distinguishable = any(inv != invariants[0] for inv in invariants[1:])
    return TreeDiscriminationReport(trees, invariants, distinguishable, used_abelianization)


def pentagon_ring() -> WeightedComplex:
    """Five-cycle with unit weights, tree on the four bold edges."""
    edges = [(0, 1, 1), (0, 4, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]
    return WeightedComplex(
        tuple(f"v{i}" for i in range(5)),
        tuple(edges),
        (),
        ((0, 1), (1, 2), (2, 3), (3, 4)),
    )


def hexagon_ring() -> WeightedComplex:
    """Six-cycle with weight 2 on the three alternating double-bond edges;
    all five tree edges form the path around the ring."""
    vertices = ("v5", "v6", "v7", "v8", "v9", "v10")
    edges = (
        (0, 1, 2),  # v5-v6 double bond
        (0, 5, 1),  # v5-v10
        (1, 2, 1),  # v6-v7
        (2, 3, 2),  # v7-v8 double bond
        (3, 4, 1),  # v8-v9
        (4, 5, 2),  # v9-v10 double bond
    )
    tree = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    return WeightedComplex(vertices, edges, (), tree)


def filtration_from_json(doc) -> Filtration:
    if not isinstance(doc, dict):
        raise SchemaError("filtration document must be a JSON object")
    if "stages" not in doc or not isinstance(doc["stages"], list):
        raise SchemaError('missing or malformed key "stages"')
    stages = []
    for i, stage_doc in enumerate(doc["stages"]):
        try:
            stages.append(complex_from_json(stage_doc))
        except SchemaError as err:
            raise SchemaError(f"stage {i}: {err}") from err
    region_map = {}
    regions = doc.get("regions", {})
    if not isinstance(regions, dict):
        raise SchemaError('"regions" must map weight values to labels')
    for key, label in regions.items():
        try:
            weight = int(key)
        except ValueError as err:
            raise SchemaError(f'region key "{key}" is not an integer weight') from err
        if not isinstance(label, str):
            raise SchemaError(f'region label for weight {key} must be a string')
        region_map[weight] = label
    return Filtration(tuple(stages), region_map)
