"""The result records keep the construction, defaults, equality, repr and
(for the frozen ones) immutability and hashing their dataclass versions had.
Every expected repr below is the string the dataclass produced."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from mapvir import records
from mapvir.algebra import QuotientMap
from mapvir.classify import ClassificationRecord, Component, TrichotomyProfile
from mapvir.evalmod import AnnihilatorReport, IntSeriesSpec, WeightTable
from mapvir.liealg import GradeComponent
from mapvir.verma import QuasifiniteVerdict, ReducibilityVerdict

TABLE = WeightTable(Fraction(0), (0, 1), {})

# (class, field names in order, one value per field, the dataclass repr)
CASES = [
    (QuotientMap, ("source", "quotient", "_project", "_lift"), ("A", "B", abs, len),
     "QuotientMap(source='A', quotient='B', _project=<built-in function abs>, "
     "_lift=<built-in function len>)"),
    (GradeComponent, ("mode", "element"), (2, "x"), "GradeComponent(mode=2, element='x')"),
    (QuasifiniteVerdict, ("status", "witness", "candidate", "note"), ("s", None, "p", "n"),
     "QuasifiniteVerdict(status='s', witness=None, candidate='p', note='n')"),
    (ReducibilityVerdict, ("status", "witness_ideal", "singular_vector", "candidate", "note"),
     ("s", "i", "v", None, "n"),
     "ReducibilityVerdict(status='s', witness_ideal='i', singular_vector='v', "
     "candidate=None, note='n')"),
    (IntSeriesSpec, ("a", "b", "window"), (Fraction(1), Fraction(1, 2), (-2, 3)),
     "IntSeriesSpec(a=Fraction(1, 1), b=Fraction(1, 2), window=(-2, 3))"),
    (WeightTable, ("base", "offsets", "mult", "truncated", "notes"),
     (Fraction(1, 2), (0, 3), {0: 1}, True, ("w",)),
     "WeightTable(base=Fraction(1, 2), offsets=(0, 3), mult={0: 1}, truncated=True, "
     "notes=('w',))"),
    (AnnihilatorReport, ("ideal", "generators", "support", "closure_verified", "notes"),
     (None, ["g"], [Fraction(-2, 3)], True, ()),
     "AnnihilatorReport(ideal=None, generators=['g'], support=[Fraction(-2, 3)], "
     "closure_verified=True, notes=())"),
    (Component, ("point", "order", "functional", "phi_piece", "int_series"),
     (Fraction(-2, 3), 2, None, None, (Fraction(0), Fraction(1))),
     "Component(point=Fraction(-2, 3), order=2, functional=None, phi_piece=None, "
     "int_series=(Fraction(0, 1), Fraction(1, 1)))"),
    (ClassificationRecord, ("verdict", "components", "notes", "witness", "idempotents"),
     ("v", [], {"k": 1}, None, ["e"]),
     "ClassificationRecord(verdict='v', components=[], notes={'k': 1}, witness=None, "
     "idempotents=['e'])"),
    (TrichotomyProfile, ("shape", "bound", "table", "window_truncated"),
     ("bounded", 0, TABLE, False),
     "TrichotomyProfile(shape='bounded', bound=0, table=WeightTable(base=Fraction(0, 1), "
     "offsets=(0, 1), mult={}, truncated=False, notes=()), window_truncated=False)"),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = {QuotientMap, GradeComponent, IntSeriesSpec}

# (class, required arguments, the defaults of the remaining fields)
DEFAULTS = [
    (QuasifiniteVerdict, ("s", None), {"candidate": None, "note": ""}),
    (ReducibilityVerdict, ("s",), {"witness_ideal": None, "singular_vector": None,
                                   "candidate": None, "note": ""}),
    (WeightTable, (Fraction(0), (0, 1), {}), {"truncated": False, "notes": ()}),
    (AnnihilatorReport, (None,), {"generators": [], "support": None,
                                  "closure_verified": False, "notes": ()}),
    (Component, (None, 1), {"functional": None, "phi_piece": None, "int_series": None}),
    (ClassificationRecord, ("v",), {"components": [], "notes": {}, "witness": None,
                                    "idempotents": []}),
]


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, text):
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == rec


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_equality_is_by_value_and_class(cls, fields, values, text):
    rec = cls(*values)
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != values
    for ocls, _, ovalues, _ in CASES:
        if ocls is not cls:
            assert rec != ocls(*ovalues)
    changed = (object(),) + values[1:]
    if cls is not IntSeriesSpec:  # IntSeriesSpec refuses a non-scalar a
        assert rec != cls(*changed)


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_records_take_no_extra_attributes_and_survive_copying(cls, fields, values, text):
    rec = cls(*values)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_frozen_records_refuse_assignment_and_hash_by_value(cls, fields, values, text):
    rec = cls(*values)
    if cls in FROZEN:
        for name in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert tuple(getattr(rec, f) for f in fields) == values
        assert hash(rec) == hash(cls(*values))
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, fields[0], "changed")
        assert getattr(rec, fields[0]) == "changed"


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[d[0].__name__ for d in DEFAULTS])
def test_defaults_and_fresh_mutable_defaults(cls, required, defaults):
    first, second = cls(*required), cls(*required)
    for name, value in defaults.items():
        assert getattr(first, name) == value
        if isinstance(value, (list, dict)):
            assert getattr(first, name) is not getattr(second, name)


def test_int_series_spec_coerces_and_rejects_an_empty_window():
    spec = IntSeriesSpec(1, "1/2", [-2, "3"])
    assert spec == IntSeriesSpec(Fraction(1), Fraction(1, 2), (-2, 3))
    assert type(spec.a) is Fraction and type(spec.window) is tuple
    assert spec.window == (-2, 3) and all(type(k) is int for k in spec.window)
    assert IntSeriesSpec(0, 0, (4, 4)).window == (4, 4)
    with pytest.raises(ValueError, match="empty intermediate-series window"):
        IntSeriesSpec(0, 0, (3, 2))
    with pytest.raises(TypeError):
        IntSeriesSpec(0.5, 0, (0, 1))


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, fields, values, text):
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))  # the first field is required
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[d[0].__name__ for d in DEFAULTS])
def test_an_explicit_none_gets_a_fresh_container(cls, required, defaults):
    fresh = {name: None for name, value in defaults.items() if isinstance(value, (list, dict))}
    first, second = cls(*required, **fresh), cls(*required, **fresh)
    for name in fresh:
        assert getattr(first, name) == defaults[name]
        assert getattr(first, name) is not getattr(second, name)


def test_only_int_series_spec_writes_its_own_constructor():
    classes = {}
    for path in Path(records.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    subclasses, grown = set(), True
    while grown:
        found = {name for name, node in classes.items()
                 if {getattr(b, "id", None) for b in node.bases} & (subclasses | {"Record"})}
        grown = not found <= subclasses
        subclasses |= found
    assert {"FrozenRecord", "QuotientMap", "ClassificationRecord", "IntSeriesSpec"} <= subclasses
    with_init = {name for name in subclasses
                 if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                        for item in classes[name].body)}
    assert with_init == {"IntSeriesSpec"}
