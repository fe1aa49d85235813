"""The package's value classes behave as the frozen dataclasses they
replaced: the same repr, equality and hash by field values within one
class, no assignment or deletion, construction by position or keyword,
``replace`` through the constructor, and pickling."""

import pickle

import pytest

from wfg.analysis import (
    BirthDeathEvent,
    Filtration,
    FiltrationAnalysis,
    TreeDiscriminationReport,
)
from wfg.complexes import ValidationReport, WeightedComplex
from wfg.exact import AbelianGroup, IntegerMatrix, SnfResult
from wfg.invariants import CyclicFactorization, WeightedHomology
from wfg.presentation import Presentation
from wfg.record import replace
from wfg.vankampen import CoverSpec, VanKampenReport

EDGE = WeightedComplex(("a", "b"), ((0, 1, 2),))
EDGE_TEXT = "WeightedComplex(vertices=('a', 'b'), edges=((0, 1, 2),), triangles=(), tree=None)"
UNIT = IntegerMatrix(1, 1, (1,))
UNIT_TEXT = "IntegerMatrix(rows=1, cols=1, sparse_rows=(((0, 1),),))"
OK = ValidationReport(True, ())

# (class, field values by name in field order, the dataclass repr)
CASES = [
    (WeightedComplex,
     dict(vertices=("a", "b", "c"), edges=((0, 1, 2), (0, 2, 1), (1, 2, -3)),
          triangles=((0, 1, 2),), tree=((0, 1), (1, 2))),
     "WeightedComplex(vertices=('a', 'b', 'c'), edges=((0, 1, 2), (0, 2, 1), (1, 2, -3)), "
     "triangles=((0, 1, 2),), tree=((0, 1), (1, 2)))"),
    (ValidationReport, dict(ok=False, violations=(("connected", "not connected"),)),
     "ValidationReport(ok=False, violations=(('connected', 'not connected'),))"),
    (Presentation, dict(generators=("g01", "g12"), relators=(((0, 2),), ((0, 1), (1, -1)))),
     "Presentation(generators=('g01', 'g12'), relators=(((0, 2),), ((0, 1), (1, -1))))"),
    (SnfResult, dict(U=UNIT, D=UNIT, V=UNIT),
     f"SnfResult(U={UNIT_TEXT}, D={UNIT_TEXT}, V={UNIT_TEXT})"),
    (AbelianGroup, dict(free_rank=1, torsion=(2, 4)), "AbelianGroup(free_rank=1, torsion=(2, 4))"),
    (CyclicFactorization, dict(orders=(0, 2, 4)), "CyclicFactorization(orders=(0, 2, 4))"),
    (WeightedHomology, dict(h0=AbelianGroup(1), h1=AbelianGroup(0, (3,))),
     "WeightedHomology(h0=AbelianGroup(free_rank=1, torsion=()), "
     "h1=AbelianGroup(free_rank=0, torsion=(3,)))"),
    (CoverSpec, dict(L=EDGE, K1=EDGE, K2=EDGE, K0=EDGE),
     f"CoverSpec(L={EDGE_TEXT}, K1={EDGE_TEXT}, K2={EDGE_TEXT}, K0={EDGE_TEXT})"),
    (VanKampenReport,
     dict(hypothesis_report=OK, tree_union_ok=True, tree_intersection_ok=False,
          amalgamated=None, direct=None, abelianization_amalgamated=None,
          abelianization_direct=None, factorizations=None, generator_classes=None),
     "VanKampenReport(hypothesis_report=ValidationReport(ok=True, violations=()), "
     "tree_union_ok=True, tree_intersection_ok=False, amalgamated=None, direct=None, "
     "abelianization_amalgamated=None, abelianization_direct=None, factorizations=None, "
     "generator_classes=None)"),
    (Filtration, dict(stages=(EDGE,), region_map={2: "r"}),
     f"Filtration(stages=({EDGE_TEXT},), region_map={{2: 'r'}})"),
    (BirthDeathEvent, dict(stage=1, kind="birth", factor=2, region="r"),
     "BirthDeathEvent(stage=1, kind='birth', factor=2, region='r')"),
    (FiltrationAnalysis,
     dict(stage_factors=(CyclicFactorization((2,)),),
          events=(BirthDeathEvent(1, "death", 0, "unknown"),), abelian_fallback_stages=(1,)),
     "FiltrationAnalysis(stage_factors=(CyclicFactorization(orders=(2,)),), "
     "events=(BirthDeathEvent(stage=1, kind='death', factor=0, region='unknown'),), "
     "abelian_fallback_stages=(1,))"),
    (TreeDiscriminationReport,
     dict(trees=(((0, 1),),), invariants=("Z/2",), distinguishable=False,
          used_abelianization=False),
     "TreeDiscriminationReport(trees=(((0, 1),),), invariants=('Z/2',), "
     "distinguishable=False, used_abelianization=False)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
UNHASHABLE = (Filtration,)  # a dict field, as with the dataclass
# One field of each class and a new value that its constructor keeps as is.
CHANGES = {
    WeightedComplex: ("tree", None),
    ValidationReport: ("ok", True),
    Presentation: ("relators", ()),
    SnfResult: ("V", None),
    AbelianGroup: ("torsion", (3,)),
    CyclicFactorization: ("orders", (0, 5)),
    WeightedHomology: ("h1", None),
    CoverSpec: ("K0", None),
    VanKampenReport: ("direct", Presentation((), ())),
    Filtration: ("region_map", {}),
    BirthDeathEvent: ("kind", "death"),
    FiltrationAnalysis: ("events", ()),
    TreeDiscriminationReport: ("distinguishable", True),
}


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_equality_and_hash(cls, fields, text):
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert repr(by_name) == repr(by_position) == text
    assert by_name == by_position and not by_name != by_position
    assert by_name != object() and by_name != tuple(fields.values())
    values = tuple(getattr(by_name, name) for name in fields)
    assert values == tuple(fields.values())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_name)
    else:
        assert hash(by_name) == hash(by_position) == hash(values)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_frozen(cls, fields, text):
    record = cls(**fields)
    first = next(iter(fields))
    for name in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_errors(cls, fields, text):
    names = list(fields)
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in names[1:]})  # the first field is missing
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{names[0]: fields[names[0]]})
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    record = cls(**fields)
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record and repr(again) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_replace_changes_one_field(cls, fields, text):
    record = cls(**fields)
    name, value = CHANGES[cls]
    changed = replace(record, **{name: value})
    assert getattr(changed, name) == value and changed != record
    assert all(getattr(changed, other) == value for other, value in fields.items()
               if other != name)
    assert replace(record) == record and replace(record) is not record


@pytest.mark.parametrize("record, changes", [
    (EDGE, dict(edges=((0, 5, 1),))),
    (EDGE, dict(tree=((0, 2),))),
    (Presentation(("g",), ()), dict(relators=(((1, 1),),))),
    (AbelianGroup(0, (2,)), dict(torsion=(2, 3))),
    (CyclicFactorization((2,)), dict(orders=(1,))),
], ids=["edge-out-of-range", "tree-not-an-edge", "unknown-generator", "broken-chain",
        "unit-order"])
def test_replace_runs_post_init(record, changes):
    with pytest.raises(ValueError):
        replace(record, **changes)


def test_replace_normalizes_like_the_constructor():
    K = replace(EDGE, vertices=["a", "b", "c"], edges=[(1, 2, 3), (0, 1, 2)], tree=[(1, 2)])
    assert K == WeightedComplex(("a", "b", "c"), ((0, 1, 2), (1, 2, 3)), (), ((1, 2),))
    assert replace(CyclicFactorization((2,)), orders=[3, 0]).orders == (0, 3)


def test_defaults():
    assert WeightedComplex(("a",), ()) == WeightedComplex(("a",), (), (), None)
    assert AbelianGroup(2).torsion == ()
    assert VanKampenReport(OK, True, True).factorizations is None
    assert Filtration((EDGE,)).region_map == {}


def test_filtration_copies_its_region_map():
    regions = {2: "r"}
    first, second = Filtration((EDGE,), regions), Filtration((EDGE,))
    regions[3] = "s"
    assert first.region_map == {2: "r"}
    assert second.region_map is not Filtration((EDGE,)).region_map


def test_cached_properties_and_matrix_constructors():
    K = WeightedComplex(**CASES[0][1])
    assert K.edge_keys is K.edge_keys and K.weight_of[(1, 2)] == -3
    assert pickle.loads(pickle.dumps(K)).adjacency == K.adjacency
    sparse = IntegerMatrix.from_sparse_rows(2, [{1: 3}, {}])
    dense = IntegerMatrix(rows=2, cols=2, entries=(0, 3, 0, 0))
    assert sparse == dense == IntegerMatrix(2, 2, [0, 3, 0, 0])
    assert hash(sparse) == hash(dense) == hash((2, 2, (((1, 3),), ())))
    assert repr(sparse) == "IntegerMatrix(rows=2, cols=2, sparse_rows=(((1, 3),), ()))"
    assert sparse.entries == dense.entries == (0, 3, 0, 0)
    assert sparse != IntegerMatrix(2, 2, (0, 3, 0, 1)) and sparse != object()
    assert pickle.loads(pickle.dumps(sparse)) == sparse
    with pytest.raises(AttributeError):
        sparse.rows = 3
    with pytest.raises(AttributeError):
        del sparse.cols
    with pytest.raises(TypeError):
        IntegerMatrix(2, 2)
