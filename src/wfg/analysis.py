"""Application workflows.

Filtration tracking: classify each stage, diff consecutive factorizations
as multisets, and label finite births/deaths with a user-supplied
weight-to-region map.  Hamiltonian paths double as maximal trees (sorted
tuples of edge keys, like a stored or built tree, or edge masks inside the
``hamiltonian`` writer), so enumerating them and classifying the complex
against each tree can tell different paths apart.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from operator import getitem

# Called as module.function, so that a wrapper set on that module (as
# bench/spans.py sets them) sees every call, whenever this module loaded;
# ``invariants`` is imported where it is called, so ``hamiltonian`` skips it.
from . import complexes
from .complexes import (
    Tree,
    WeightedComplex,
    _tree_violations,
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
from .record import Record

UNKNOWN_REGION = "unknown"

HAMILTONIAN_VERTEX_LIMIT = 14

# Partial paths the enumeration may visit: K9 takes 986,409, while K14,
# within the vertex limit, would take about 2.4e11.
HAMILTONIAN_PATH_BUDGET = 2_000_000


class Filtration(Record):
    stages: tuple[WeightedComplex, ...]
    region_map: dict[int, str] = {}  # copied by __post_init__, never shared

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "region_map", dict(self.region_map))


class BirthDeathEvent(Record):
    stage: int
    kind: str  # "birth" or "death"
    factor: int  # 0 for an infinite cyclic factor, m >= 2 otherwise
    region: str


class FiltrationAnalysis(Record):
    stage_factors: tuple[CyclicFactorization, ...]
    events: tuple[BirthDeathEvent, ...]
    abelian_fallback_stages: tuple[int, ...]


def _stage_factors(stage: WeightedComplex, index: int, fallback_abelian: bool):
    from . import invariants
    prepared = ensure_tree(stage)
    try:
        return invariants.classify(prepared), False
    except ConditionFailed as err:
        if not fallback_abelian:
            raise ConditionFailed(
                f"stage {index}: {err}", triangle=err.triangle, stage=index
            ) from err
        ab = invariants.abelianization(prepared)
        return invariants.normalize_factorization([0] * ab.free_rank + list(ab.torsion)), True


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
    edge list.  Limits and errors are those of ``_hamiltonian_masks``."""
    edges = _mask_parts([(key,) for key in complex.edge_keys], ())
    return [sum(edges(mask), ()) for mask in _hamiltonian_masks(complex)]


def _hamiltonian_masks(complex: WeightedComplex) -> list[int]:
    """The Hamiltonian trees as edge masks, bit E-1-j for edge j of
    ``edge_keys``, in descending order.  For two edge sets of one size the
    lexicographic order of their sorted keys is decided by the least edge
    in their symmetric difference, the highest bit where the masks differ,
    so descending masks are ascending edge lists.

    The budget counts the partial paths a backtracking search from every
    start would visit; a first pass over the states (visited set, end
    vertex) sums them and raises TooLarge past HAMILTONIAN_PATH_BUDGET
    before any tree is listed.  The second pass walks only into states with
    a Hamiltonian completion that ends at a vertex >= the start, so it
    meets no dead end and no reversed path."""
    if complex.triangles:
        raise NotAGraph("Hamiltonian enumeration expects a graph")
    n = len(complex.vertices)
    if n > HAMILTONIAN_VERTEX_LIMIT:
        raise TooLarge(f"{n} vertices exceeds the limit of {HAMILTONIAN_VERTEX_LIMIT}")
    full = (1 << n) - 1
    ebit = {key: 1 << j for j, key in enumerate(reversed(complex.edge_keys))}
    # (neighbour, its bit, the bit of the edge to it) for each vertex.
    steps = [tuple((u, 1 << u, ebit[min(u, v), max(u, v)]) for u in complex.adjacency[v])
             for v in range(n)]
    memo: dict[int, tuple[int, int]] = {}
    if sum(_scan(v, 1 << v, steps, full, memo)[0] for v in range(n)) > HAMILTONIAN_PATH_BUDGET:
        raise TooLarge(f"Hamiltonian enumeration stopped at {HAMILTONIAN_PATH_BUDGET + 1} "
                       f"partial paths, past the budget of {HAMILTONIAN_PATH_BUDGET}")
    found: list[int] = []
    for start in range(n):
        if memo[1 << start << 4 | start][1] >= start:
            _walk(start, 1 << start, start, steps, full, memo, 0, found)
    found.sort(reverse=True)
    return found


# The search state (visited set, end vertex) as one memo key; the end
# vertex fits in 4 bits below HAMILTONIAN_VERTEX_LIMIT = 14.  The memo is
# passed, not closed over: a closure that calls itself is a reference
# cycle, and the memo would wait for the cyclic garbage collector.

def _scan(v: int, visited: int, steps, full: int, memo) -> tuple[int, int]:
    """(partial paths the backtracking visits from this state on, itself
    included; greatest end vertex of a Hamiltonian completion, or -1)."""
    key = visited << 4 | v
    known = memo.get(key)
    if known is None:
        count, last = 1, v if visited == full else -1
        for u, bit, _ in steps[v]:
            if not visited & bit:
                more, end = _scan(u, visited | bit, steps, full, memo)
                count += more
                if end > last:
                    last = end
        known = memo[key] = (count, last)
    return known


def _walk(v: int, visited: int, start: int, steps, full: int, memo, mask: int, found):
    """Append the edge mask of each Hamiltonian path from this state that
    ends at a vertex >= start; ``mask`` holds the edges so far."""
    if visited == full:
        found.append(mask)
        return
    for u, bit, ebit in steps[v]:
        if not visited & bit and memo[(visited | bit) << 4 | u][1] >= start:
            _walk(u, visited | bit, start, steps, full, memo, mask | ebit, found)


def _mask_parts(items, empty):
    """A function from a mask over the list ``items`` (bit E-1-j for item
    j) to the sums of its items byte by byte, in item order: adding those
    up (or joining them) gives the sum of the mask's items.  One table per
    byte of the mask holds every sum of that byte's k items, ``empty`` for
    none, at 2^k entries, so a mask costs one lookup per 8 items."""
    tables = []
    for end in range(len(items), 0, -8):  # the low byte first
        table = [empty]
        for item in reversed(items[max(0, end - 8):end]):  # its bit 0 first
            table += [item + rest for rest in table]
        tables.insert(0, table)
    size = len(tables)
    return lambda mask: map(getitem, tables, mask.to_bytes(size, "big"))


def write_hamiltonian_report(complex: WeightedComplex, as_json: bool, write):
    """Write the ``hamiltonian`` report: every Hamiltonian tree and its
    ``classify`` invariant, then whether the invariants differ.

    In a graph a tree's invariant has E-n+1 factors Z, one more Z for each
    tree edge of weight 0 and Z/|w| for each tree edge with |w| >= 2,
    ascending; the exactly-two condition holds vacuously, so no tree falls
    back to the abelianization.  A tree's mask is mapped to a mask over the
    edges ranked by |w|, and both masks to text through ``_mask_parts``.
    ``--json`` is laid out exactly as ``json.dump(payload, indent=2)``
    would; an invariant's text holds only letters, digits, "/", "*" and
    spaces, so quoting it is its JSON encoding.  Each invariant is made as
    it is written and compared with the first, so none is kept."""
    masks = _hamiltonian_masks(complex)
    keys = complex.edge_keys
    ranked = sorted((abs(w), j) for j, (_, _, w) in enumerate(complex.edges) if abs(w) != 1)
    rank_bit = {j: 1 << r for r, (_, j) in enumerate(reversed(ranked))}
    ranks = _mask_parts([rank_bit.get(j, 0) for j in range(len(keys))], 0)
    factors = _mask_parts([f" * Z/{m}" if m else " * Z" for m, _ in ranked], "")
    head = " * Z" * (len(keys) - len(complex.vertices) + 1)
    distinguishable = False

    def invariants():
        nonlocal distinguishable
        first = None
        for mask in masks:
            text = (head + "".join(factors(sum(ranks(mask)))))[3:] or "1"
            first = first or text
            distinguishable = distinguishable or text != first
            yield text

    if as_json:
        edges = _mask_parts([f",\n      [\n        {a},\n        {b}\n      ]"
                             for a, b in keys], "")
        write(f'{{\n  "count": {len(masks)},\n  "trees": ')
        _write_json_array(write, (f"[{text[1:]}\n    ]" if text else "[]"
                                  for text in map("".join, map(edges, masks))))
        write(',\n  "invariants": ')
        _write_json_array(write, (f'"{inv}"' for inv in invariants()))
        write(f',\n  "used_abelianization": false,'
              f'\n  "distinguishable": {"true" if distinguishable else "false"}\n}}\n')
        return
    edges = _mask_parts([", {}-{}".format(*complex.edge_labels(key)) for key in keys], "")
    write(f"{len(masks)} Hamiltonian tree(s)\n")
    for text, inv in zip(map("".join, map(edges, masks)), invariants()):
        write(f"  [{text[2:]}] -> {inv}\n")
    write(f"distinguishable: {distinguishable}\n")


def _write_json_array(write, items):
    """A top-level key's ``indent=2`` JSON array of encoded items, item by item."""
    opener = "[\n    "
    for item in items:
        write(opener + item)
        opener = ",\n    "
    write("[]" if opener == "[\n    " else "\n  ]")


class TreeDiscriminationReport(Record):
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
    from . import invariants
    trees = tuple(trees)
    n, known_edges = len(complex.vertices), set(complex.edge_keys)
    for t in trees:
        if _tree_violations(n, known_edges, t):
            raise BadTree(f"{t} is not a maximal tree of the complex")

    factors = invariants._tree_factors(complex)
    try:
        values = tuple(invariants.CyclicFactorization((0,) * free + tuple(finite))
                       for free, finite in map(factors, trees))
        used_abelianization = False
    except ConditionFailed:
        values = tuple(invariants.abelianization(complex.with_tree(t)) for t in trees)
        used_abelianization = True

    distinguishable = any(inv != values[0] for inv in values[1:])
    return TreeDiscriminationReport(trees, values, distinguishable, used_abelianization)


def filtration_from_json(doc) -> Filtration:
    if not isinstance(doc, dict):
        raise SchemaError("filtration document must be a JSON object")
    if "stages" not in doc or not isinstance(doc["stages"], list):
        raise SchemaError('missing or malformed key "stages"')
    stages = []
    for i, stage_doc in enumerate(doc["stages"]):
        try:
            stages.append(complexes.complex_from_json(stage_doc))
        except SchemaError as err:
            raise SchemaError(f"stage {i}: {err}") from err
    region_map = {}
    regions = doc.get("regions", {})
    if not isinstance(regions, dict):
        raise SchemaError('"regions" must map weight values to labels')
    for key, label in regions.items():
        # Only the canonical decimal text of an integer, so that no two keys
        # ("3", "03", " 3", "+3") name one weight.
        try:
            weight = int(key)
        except ValueError:
            weight = None
        if str(weight) != key:
            raise SchemaError(f'region key "{key}" is not an integer weight')
        if not isinstance(label, str):
            raise SchemaError(f'region label for weight {key} must be a string')
        region_map[weight] = label
    return Filtration(tuple(stages), region_map)
