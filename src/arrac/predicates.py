"""Condition trees evaluated against one (index, value) association.

Leaves compare either the association's value (``ValueCmp``, or ``ItemCmp``
for one component of a tuple value) or its index coordinates (``CoordCmp``,
``CoordConst``).  ``And``/``Or``/``Not`` combine, and ``TRUE``/``FALSE`` are
constant leaves.

Evaluation is total: every association yields True or False.  Ordered
comparisons between values of different tags (or against non-scalar values)
evaluate to False instead of raising.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple, Union

from .core import FloatV, Index, IntV, StrV, Value, as_value
from .errors import PredicateArity


class Cmp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_ORDERED = {Cmp.LT: (-1,), Cmp.LE: (-1, 0), Cmp.GT: (1,), Cmp.GE: (0, 1)}


def _compare_values(op: Cmp, left: Value, right: Value) -> bool:
    if op is Cmp.EQ:
        return left == right
    if op is Cmp.NE:
        return left != right
    # ordered comparison: only within one scalar tag
    for tag in (IntV, FloatV, StrV):
        if isinstance(left, tag) and isinstance(right, tag):
            a, b = left.value, right.value
            sign = -1 if a < b else (1 if a > b else 0)
            return sign in _ORDERED[op]
    return False


def _compare_ints(op: Cmp, a: int, b: int) -> bool:
    if op is Cmp.EQ:
        return a == b
    if op is Cmp.NE:
        return a != b
    sign = -1 if a < b else (1 if a > b else 0)
    return sign in _ORDERED[op]


@dataclass(frozen=True, slots=True)
class ValueCmp:
    """Compare the association's whole value against a constant."""

    op: Cmp
    constant: Value

    def __post_init__(self):
        object.__setattr__(self, "constant", as_value(self.constant))


@dataclass(frozen=True, slots=True)
class ItemCmp:
    """Compare one component of a tuple value against a constant.

    False on non-tuple values and on out-of-range positions.
    """

    op: Cmp
    position: int
    constant: Value

    def __post_init__(self):
        object.__setattr__(self, "constant", as_value(self.constant))


@dataclass(frozen=True, slots=True)
class CoordCmp:
    """Compare two coordinates of the association's index."""

    op: Cmp
    dim_a: int
    dim_b: int


@dataclass(frozen=True, slots=True)
class CoordConst:
    """Compare one index coordinate against an integer constant."""

    op: Cmp
    dim: int
    constant: int


@dataclass(frozen=True, slots=True)
class And:
    children: Tuple["Predicate", ...]

    def __init__(self, *children):
        if len(children) == 1 and isinstance(children[0], tuple):
            children = children[0]
        if len(children) < 2:
            raise ValueError("And needs at least two children")
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True, slots=True)
class Or:
    children: Tuple["Predicate", ...]

    def __init__(self, *children):
        if len(children) == 1 and isinstance(children[0], tuple):
            children = children[0]
        if len(children) < 2:
            raise ValueError("Or needs at least two children")
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True, slots=True)
class Not:
    child: "Predicate"


class _Const:
    __slots__ = ("truth",)
    _cache: dict = {}

    def __new__(cls, truth: bool):
        if truth not in cls._cache:
            obj = super().__new__(cls)
            object.__setattr__(obj, "truth", truth)
            cls._cache[truth] = obj
        return cls._cache[truth]

    def __setattr__(self, name, value):
        raise AttributeError("constant predicates are immutable")

    def __repr__(self):
        return "TRUE" if self.truth else "FALSE"


TRUE = _Const(True)
FALSE = _Const(False)

Predicate = Union[ValueCmp, ItemCmp, CoordCmp, CoordConst, And, Or, Not, _Const]


def holds(pred: Predicate, index: Index, value: Value) -> bool:
    """Evaluate ``pred`` on one association. Total: never raises."""
    if isinstance(pred, _Const):
        return pred.truth
    if isinstance(pred, ValueCmp):
        return _compare_values(pred.op, value, pred.constant)
    if isinstance(pred, ItemCmp):
        from .core import TupleV

        if not isinstance(value, TupleV) or not 0 <= pred.position < len(value.items):
            return False
        return _compare_values(pred.op, value.items[pred.position], pred.constant)
    if isinstance(pred, CoordCmp):
        return _compare_ints(pred.op, index[pred.dim_a], index[pred.dim_b])
    if isinstance(pred, CoordConst):
        return _compare_ints(pred.op, index[pred.dim], pred.constant)
    if isinstance(pred, And):
        return all(holds(c, index, value) for c in pred.children)
    if isinstance(pred, Or):
        return any(holds(c, index, value) for c in pred.children)
    if isinstance(pred, Not):
        return not holds(pred.child, index, value)
    raise TypeError(f"not a predicate: {pred!r}")


def leaves(pred: Predicate):
    """The leaves of the condition tree, left to right."""
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.children))
        elif isinstance(node, Not):
            stack.append(node.child)
        else:
            yield node


def referenced_dims(pred: Predicate) -> frozenset:
    """All index dimensions the predicate touches."""
    dims = set()
    for leaf in leaves(pred):
        if isinstance(leaf, CoordCmp):
            dims.update((leaf.dim_a, leaf.dim_b))
        elif isinstance(leaf, CoordConst):
            dims.add(leaf.dim)
    return frozenset(dims)


def referenced_positions(pred: Predicate) -> frozenset:
    """All tuple-value positions the predicate touches (ItemCmp leaves)."""
    return frozenset(leaf.position for leaf in leaves(pred) if isinstance(leaf, ItemCmp))


def references_value(pred: Predicate) -> bool:
    """True when any leaf looks at the association's value."""
    return any(isinstance(leaf, (ValueCmp, ItemCmp)) for leaf in leaves(pred))


def check_dims(pred: Predicate, arity: int) -> None:
    """Raise PredicateArity when a coordinate leaf points past ``arity``."""
    bad = [d for d in referenced_dims(pred) if not 0 <= d < arity]
    if bad:
        raise PredicateArity(
            f"predicate references dimension {min(bad)} of a {arity}-d array"
        )
