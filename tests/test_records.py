"""The engine's immutable record classes: equality, hashing, repr, keyword
construction, pattern-matching order, immutability and copying, pinned for
every class.

Reprs appear in error messages, hashes decide set iteration order, and
fields that take no part in comparison (``span``, ``recorded``) must not
affect either.
"""

import copy
import pickle

import pytest

from arrac.core import Array, ArrayV, FloatV, IntV, StrV, TupleV
from arrac.distribution import Fragment, HorizontalSplit, Placement, VerticalSplit
from arrac.predicates import (
    FALSE, TRUE, And, Cmp, CoordCmp, CoordConst, ItemCmp, Not, Or, ValueCmp, _Const,
)
from arrac.qlang import ast
from arrac.qlang.evaluator import Kind
from arrac.qlang.lexer import Token
from arrac.relbridge import Column, TableSchema
from arrac.transforms import (
    Compact, InsertDim, InsertFromTable, Permute, RemapDim, RemoveDim, Translate,
)

A = Array(1, [((0,), 1)])
B = Array(1, [((0,), 2)])
P = CoordConst(Cmp.EQ, 0, 1)
Q = CoordConst(Cmp.EQ, 0, 2)
R = ast.Ref("A")
S = ast.Ref("B")
F = Fragment("f0", A, "s0")
P_REPR = "CoordConst(op=<Cmp.EQ: '='>, dim=0, constant=1)"
A_REPR = "Array(1, {(0,): IntV(1)})"


def case(cls, kwargs, other, expected, keywords=True):
    """``cls(**kwargs)`` (when the class takes ``keywords``) and
    ``cls(*kwargs.values())`` must repr as ``expected``, be equal, and differ
    from the record built from ``other``."""
    return pytest.param(cls, kwargs, other, expected, keywords, id=cls.__name__)


CASES = [
    case(IntV, {"value": 5}, {"value": 6}, "IntV(5)"),
    case(StrV, {"value": 'a"b'}, {"value": "ab"}, "StrV('a\"b')"),
    case(TupleV, {"items": (1, "a")}, {"items": (1, "b")}, "TupleV((IntV(1), StrV('a')))"),
    case(ArrayV, {"array": A}, {"array": B}, f"ArrayV({A_REPR})"),
    case(ValueCmp, {"op": Cmp.EQ, "constant": 3}, {"op": Cmp.NE, "constant": 3},
         "ValueCmp(op=<Cmp.EQ: '='>, constant=IntV(3))"),
    case(ItemCmp, {"op": Cmp.LT, "position": 1, "constant": "x"},
         {"op": Cmp.LT, "position": 0, "constant": "x"},
         "ItemCmp(op=<Cmp.LT: '<'>, position=1, constant=StrV('x'))"),
    case(CoordCmp, {"op": Cmp.NE, "dim_a": 0, "dim_b": 1},
         {"op": Cmp.NE, "dim_a": 1, "dim_b": 0},
         "CoordCmp(op=<Cmp.NE: '!='>, dim_a=0, dim_b=1)"),
    case(CoordConst, {"op": Cmp.GE, "dim": 0, "constant": 2},
         {"op": Cmp.GE, "dim": 0, "constant": 3},
         "CoordConst(op=<Cmp.GE: '>='>, dim=0, constant=2)"),
    # And and Or take their children one by one, or as one tuple
    case(And, {"children": (P, TRUE)}, {"children": (P, FALSE)},
         f"And(children=({P_REPR}, TRUE))", keywords=False),
    case(Or, {"children": (P, FALSE)}, {"children": (Q, FALSE)},
         f"Or(children=({P_REPR}, FALSE))", keywords=False),
    case(Not, {"child": P}, {"child": Q}, f"Not(child={P_REPR})"),
    case(_Const, {"truth": True}, {"truth": False}, "TRUE"),
    case(Permute, {"perm": [1, 0]}, {"perm": (0, 1)}, "Permute(perm=(1, 0))"),
    case(Translate, {"dim": 0, "offset": 5}, {"dim": 0, "offset": -5},
         "Translate(dim=0, offset=5)"),
    case(InsertDim, {"position": 1, "constant": 0}, {"position": 0, "constant": 0},
         "InsertDim(position=1, constant=0)"),
    case(RemoveDim, {"position": 1}, {"position": 0},
         "RemoveDim(position=1, recorded=None)"),
    case(Compact, {"dim": 0}, {"dim": 1}, "Compact(dim=0, recorded=None)"),
    case(RemapDim, {"dim": 0, "table": [(5, 1), (2, 0)]}, {"dim": 0, "table": [(5, 1)]},
         "RemapDim(dim=0, table=((2, 0), (5, 1)))"),
    case(InsertFromTable, {"position": 1, "table": [((1,), 3), ((0,), 2)]},
         {"position": 1, "table": [((1,), 3)]},
         "InsertFromTable(position=1, table=(((0,), 2), ((1,), 3)))"),
    case(VerticalSplit, {"predicates": [P]}, {"predicates": [Q]},
         f"VerticalSplit(predicates=({P_REPR},))"),
    case(HorizontalSplit, {"slices": [[2, 1, 1], [0]]}, {"slices": [[0]]},
         "HorizontalSplit(slices=((1, 2), (0,)))"),
    case(Fragment, {"fragment_id": "f0", "array": A, "shard_id": "s0"},
         {"fragment_id": "f0", "array": B, "shard_id": "s0"},
         f"Fragment(fragment_id='f0', array={A_REPR}, shard_id='s0')"),
    case(Placement, {"fragments": [F], "scheme": HorizontalSplit([[0]]), "origin_arity": 1},
         {"fragments": [F], "scheme": HorizontalSplit([[0]]), "origin_arity": 2},
         f"Placement(fragments=(Fragment(fragment_id='f0', array={A_REPR}, shard_id='s0'),), "
         "scheme=HorizontalSplit(slices=((0,),)), origin_arity=1)"),
    case(Column, {"name": "a", "type_tag": "int"}, {"name": "a", "type_tag": "str"},
         "Column(name='a', type_tag='int')"),
    case(TableSchema, {"columns": [Column("a")], "key_column": "a"},
         {"columns": [Column("a")], "key_column": None},
         "TableSchema(columns=(Column(name='a', type_tag='any'),), key_column='a')"),
    case(Kind, {"sort": "array", "arity": 2}, {"sort": "placement", "arity": 2},
         "Kind(sort='array', arity=2)"),
    case(Token, {"kind": "int", "text": "5", "line": 1, "column": 3, "value": 5},
         {"kind": "int", "text": "5", "line": 2, "column": 3, "value": 5},
         "Token(kind='int', text='5', line=1, column=3, value=5)"),
    case(ast.Ref, {"name": "A"}, {"name": "B"}, "Ref(name='A', span=None)"),
    case(ast.Project, {"child": R, "indexes": ((0,),)}, {"child": R, "indexes": ((1,),)},
         "Project(child=Ref(name='A', span=None), indexes=((0,),), span=None)"),
    case(ast.Select, {"child": R, "pred": P}, {"child": R, "pred": Q},
         f"Select(child=Ref(name='A', span=None), pred={P_REPR}, span=None)"),
    case(ast.Cross, {"left": R, "right": S}, {"left": S, "right": R},
         "Cross(left=Ref(name='A', span=None), right=Ref(name='B', span=None), span=None)"),
    case(ast.Transform, {"child": R, "steps": (Translate(0, 1),)},
         {"child": R, "steps": (Translate(0, 2),)},
         "Transform(child=Ref(name='A', span=None), steps=(Translate(dim=0, offset=1),), "
         "span=None)"),
    case(ast.Union, {"left": R, "right": S}, {"left": R, "right": R},
         "Union(left=Ref(name='A', span=None), right=Ref(name='B', span=None), span=None)"),
    case(ast.EquiJoin, {"left": R, "right": S, "on": ((0, 0),)},
         {"left": R, "right": S, "on": ((0, 1),)},
         "EquiJoin(left=Ref(name='A', span=None), right=Ref(name='B', span=None), "
         "on=((0, 0),), span=None)"),
    case(ast.SemiJoin, {"left": R, "right": S, "on": ((0, 0),)},
         {"left": R, "right": S, "on": ()},
         "SemiJoin(left=Ref(name='A', span=None), right=Ref(name='B', span=None), "
         "on=((0, 0),), span=None)"),
    case(ast.AntiJoin, {"left": R, "right": S, "on": ((0, 0),)},
         {"left": S, "right": S, "on": ((0, 0),)},
         "AntiJoin(left=Ref(name='A', span=None), right=Ref(name='B', span=None), "
         "on=((0, 0),), span=None)"),
    case(ast.VPartition, {"child": R, "predicates": (P,)}, {"child": R, "predicates": (Q,)},
         f"VPartition(child=Ref(name='A', span=None), predicates=({P_REPR},), span=None)"),
    case(ast.HPartition, {"child": R, "slices": ((0,),)}, {"child": R, "slices": ((1,),)},
         "HPartition(child=Ref(name='A', span=None), slices=((0,),), span=None)"),
    case(ast.Reassemble, {"child": R}, {"child": S},
         "Reassemble(child=Ref(name='A', span=None), span=None)"),
]


@pytest.mark.parametrize("cls, kwargs, other, expected, keywords", CASES)
def test_record_class(cls, kwargs, other, expected, keywords):
    rec = cls(**kwargs) if keywords else cls(*kwargs.values())
    assert repr(rec) == expected
    same = cls(*kwargs.values())
    assert rec is not same and rec == same and not rec != same
    assert hash(rec) == hash(same)
    differ = cls(*other.values())
    assert rec != differ and not rec == differ
    assert rec != kwargs and rec.__eq__(object()) is NotImplemented
    assert copy.copy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec
    assert repr(copy.deepcopy(rec)) == expected
    assert cls.__match_args__[: len(kwargs)] == tuple(kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == expected


@pytest.mark.parametrize("a, b", [
    (Translate(0, 1), InsertDim(0, 1)),
    (ast.Union(R, S), ast.Cross(R, S)),
    (ast.SemiJoin(R, S, ()), ast.AntiJoin(R, S, ())),
    (IntV(1), StrV(1)),
])
def test_records_of_two_classes_with_equal_fields_differ(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("make, field, a, b", [
    (lambda span: ast.Ref("A", span=span), "span", None, (1, 1)),
    (lambda span: ast.Select(R, P, span), "span", (1, 1), (2, 7)),
    (lambda span: ast.EquiJoin(R, S, ((0, 0),), span=span), "span", (3, 4), None),
    (lambda recorded: RemoveDim(1, recorded=recorded), "recorded", None, (((0,), 3),)),
    (lambda recorded: Compact(0, recorded), "recorded", ((0, 5),), ((0, 6),)),
])
def test_uncompared_fields_change_neither_equality_nor_hash(make, field, a, b):
    x, y = make(a), make(b)
    assert x == y and hash(x) == hash(y)
    assert getattr(x, field) == a and getattr(y, field) == b
    assert repr(x) != repr(y) and f"{field}={b!r})" in repr(y)


def test_reprs_that_messages_carry():
    assert repr(Permute((0, 0))) == "Permute(perm=(0, 0))"
    assert repr(ast.Ref("A", span=(1, 1))) == "Ref(name='A', span=(1, 1))"
    assert repr(RemoveDim(1, recorded=(((0,), 3),))) == (
        "RemoveDim(position=1, recorded=(((0,), 3),))"
    )
    assert repr(FALSE) == "FALSE" and TRUE == _Const(True)
    assert str(Kind("placement", 1)) == "placement(1)"


def test_hash_is_the_hash_of_the_compared_fields():
    # the dataclass formula: set iteration order over records must not move
    assert hash(Translate(0, 5)) == hash((0, 5))
    assert hash(IntV(5)) == hash((5,))
    assert hash(StrV("x")) == hash(("x",))
    assert hash(ast.Ref("A", span=(1, 1))) == hash(("A",))
    assert hash(RemoveDim(2, recorded=())) == hash((2,))


@pytest.mark.parametrize("make, error", [
    (lambda: TupleV(()), ValueError),
    (lambda: ArrayV(5), TypeError),
    (lambda: And(P), ValueError),
    (lambda: Placement([F, F], HorizontalSplit([[0]]), 1), ValueError),
    (lambda: Column("a b"), ValueError),
    (lambda: Column("a", "decimal"), ValueError),
    (lambda: TableSchema([Column("a"), Column("a")]), ValueError),
    (lambda: TableSchema([Column("a")], key_column="b"), ValueError),
    (lambda: Translate(0), TypeError),
    (lambda: Translate(0, 1, 2), TypeError),
    (lambda: Translate(0, offset=1, dim=0), TypeError),
    (lambda: ast.Ref(name="A", where=(1, 1)), TypeError),
])
def test_construction_checks(make, error):
    with pytest.raises(error):
        make()


def test_constructors_coerce():
    assert IntV(True).value == 1 and type(IntV(True).value) is int
    assert TupleV((1, None)).items[0] == IntV(1)
    assert ValueCmp(Cmp.EQ, "x").constant == StrV("x")
    assert Permute([1, 0]).perm == (1, 0)
    assert TableSchema([Column("a")]).columns == (Column("a"),)


def test_float_values_copy_and_stay_immutable():
    x = FloatV(-0.0)
    assert repr(copy.deepcopy(x)) == "FloatV(-0.0)" and pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(AttributeError):
        x.value = 1.0
    with pytest.raises(AttributeError):
        del x.value
