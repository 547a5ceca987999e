"""Condition trees evaluated against one (index, value) association.

Leaves compare either the association's value (``ValueCmp``, or ``ItemCmp``
for one component of a tuple value) or its index coordinates (``CoordCmp``,
``CoordConst``).  ``And``/``Or``/``Not`` combine, and ``TRUE``/``FALSE`` are
constant leaves.

Evaluation is total once every coordinate leaf names a dimension of the
index (``check_dims``): every association then yields True or False.
Ordered comparisons between values of different tags (or against non-scalar
values) evaluate to False instead of raising.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import Iterator, Union

from .core import FloatV, Index, IntV, Record, StrV, TupleV, Value, as_value, show
from .errors import PredicateArity


class Cmp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    # members are singletons that compare by identity; Enum's own hash is a
    # Python-level call on every operator lookup
    __hash__ = object.__hash__


_OPS = {op: getattr(operator, op.name.lower()) for op in Cmp}
# ordered comparisons apply within one scalar tag only
_SCALARS = (IntV, FloatV, StrV)


class ValueCmp(Record):
    """Compare the association's whole value against a constant."""

    __slots__ = ("op", "constant")

    def __init__(self, op: Cmp, constant: Value):
        super().__init__(op, as_value(constant))


class ItemCmp(Record):
    """Compare one component of a tuple value against a constant.

    False on non-tuple values and on out-of-range positions.
    """

    __slots__ = ("op", "position", "constant")

    def __init__(self, op: Cmp, position: int, constant: Value):
        super().__init__(op, position, as_value(constant))


class CoordCmp(Record):
    """Compare two coordinates of the association's index."""

    __slots__ = ("op", "dim_a", "dim_b")


class CoordConst(Record):
    """Compare one index coordinate against an integer constant."""

    __slots__ = ("op", "dim", "constant")


def _connective(self, *children):
    """``And(p, q, ...)`` or ``And((p, q, ...))``: at least two children."""
    if len(children) == 1 and isinstance(children[0], tuple):
        children = children[0]
    if len(children) < 2:
        raise ValueError(f"{type(self).__name__} needs at least two children")
    object.__setattr__(self, "children", tuple(children))


class And(Record):
    __slots__ = ("children",)
    __init__ = _connective


class Or(Record):
    __slots__ = ("children",)
    __init__ = _connective


class Not(Record):
    __slots__ = ("child",)


class _Const(Record):
    __slots__ = ("truth",)

    def __repr__(self):
        return "TRUE" if self.truth else "FALSE"


TRUE = _Const(True)
FALSE = _Const(False)

Predicate = Union[ValueCmp, ItemCmp, CoordCmp, CoordConst, And, Or, Not, _Const]


def children(pred: Predicate) -> tuple:
    """The sub-predicates of an ``And``, ``Or`` or ``Not`` node, in order;
    ``()`` for a leaf.  The one place that knows how a condition tree nests."""
    if isinstance(pred, Not):
        return (pred.child,)
    return pred.children if isinstance(pred, (And, Or)) else ()


def _value_test(op: Cmp, constant: Value):
    """``value -> bool`` comparing a value against ``constant``."""
    compare = _OPS[op]
    if op in (Cmp.EQ, Cmp.NE):
        return lambda v: compare(v, constant)
    for tag in _SCALARS:
        if isinstance(constant, tag):
            c = constant.value
            return lambda v: isinstance(v, tag) and compare(v.value, c)
    return lambda v: False


def compile_predicate(pred: Predicate):
    """Compile ``pred`` once into ``test(index, value) -> bool``, specialised
    on each leaf's operator, dimensions and position.  The test never raises."""
    if isinstance(pred, _Const):
        truth = pred.truth
        return lambda i, v: truth
    if isinstance(pred, CoordCmp):
        compare, a, b = _OPS[pred.op], pred.dim_a, pred.dim_b
        return lambda i, v: compare(i[a], i[b])
    if isinstance(pred, CoordConst):
        compare, d, c = _OPS[pred.op], pred.dim, pred.constant
        return lambda i, v: compare(i[d], c)
    if isinstance(pred, ValueCmp):
        test = _value_test(pred.op, pred.constant)
        return lambda i, v: test(v)
    if isinstance(pred, ItemCmp):
        test, p = _value_test(pred.op, pred.constant), pred.position
        return lambda i, v: isinstance(v, TupleV) and 0 <= p < len(v.items) and test(v.items[p])
    if isinstance(pred, Not):
        (test,) = map(compile_predicate, children(pred))
        return lambda i, v: not test(i, v)
    if isinstance(pred, (And, Or)):
        tests = tuple(map(compile_predicate, children(pred)))
        # And stops at the first False, Or at the first True; tests return bools
        stop = isinstance(pred, Or)

        def test(i, v):
            for t in tests:
                if t(i, v) is stop:
                    return stop
            return not stop

        return test
    raise TypeError(f"not a predicate: {pred!r}")


def holds(pred: Predicate, index: Index, value: Value) -> bool:
    """Evaluate ``pred`` on one association.  Raises PredicateArity when a
    coordinate leaf names a dimension the index lacks; otherwise total."""
    check_dims(pred, len(index))
    return compile_predicate(pred)(index, value)


# The integers ``x`` with ``x op c`` as a closed interval, for each op but ``!=``.
_INTERVALS = {
    Cmp.EQ: lambda c: (c, c),
    Cmp.LT: lambda c: (-math.inf, c - 1),
    Cmp.LE: lambda c: (-math.inf, c),
    Cmp.GT: lambda c: (c + 1, math.inf),
    Cmp.GE: lambda c: (c, math.inf),
}


def _box_residual(pred: Predicate, arity: int) -> tuple:
    """``pred``'s box as ``{dim: (lo, hi)}`` over its bounded dimensions (None
    when empty), and its residual: the part of ``pred`` the box cannot
    decide, ``TRUE`` itself where it decides all, so that inside the box
    ``pred`` holds exactly where its residual does.  An ``And`` conjoins its
    children's residuals; an ``Or``, ``Not``, ``!=``, value or ``CoordCmp``
    leaf is its own residual."""
    if isinstance(pred, CoordConst):
        interval = _INTERVALS.get(pred.op)
        if interval and isinstance(pred.constant, int) and 0 <= pred.dim < arity:
            return {pred.dim: interval(pred.constant)}, TRUE
    if isinstance(pred, _Const):
        return ({} if pred.truth else None), TRUE
    if not isinstance(pred, (And, Or)):
        return {}, pred
    parts = [_box_residual(c, arity) for c in children(pred)]
    live = [b for b, _ in parts if b is not None]
    if isinstance(pred, Or) and live:
        # a dimension stays bounded only where every live child bounds it
        dims = set(live[0]).intersection(*live[1:])
        return {d: (min(b[d][0] for b in live), max(b[d][1] for b in live)) for d in dims}, pred
    if isinstance(pred, Or) or len(live) < len(parts):
        return None, pred
    meet, rest = {}, []
    for b, r in parts:
        for d, (lo, hi) in b.items():
            if d in meet:
                was_lo, was_hi = meet[d]
                lo, hi = max(lo, was_lo), min(hi, was_hi)
                if lo > hi:
                    return None, pred
            meet[d] = lo, hi
        if r is not TRUE:
            rest.append(r)
    return meet, (And(tuple(rest)) if len(rest) > 1 else rest[0] if rest else TRUE)


def leaves(pred: Predicate) -> Iterator[Predicate]:
    """The leaves of the condition tree, left to right."""
    subs = children(pred)
    if not subs:
        yield pred
    for sub in subs:
        yield from leaves(sub)


def referenced_positions(pred: Predicate) -> frozenset:
    """All tuple-value positions the predicate touches (ItemCmp leaves)."""
    return frozenset(leaf.position for leaf in leaves(pred) if isinstance(leaf, ItemCmp))


def check_dims(pred: Predicate, arity: int) -> None:
    """Raise PredicateArity when a coordinate leaf points past ``arity``."""
    bad = [
        d
        for leaf in leaves(pred)
        if isinstance(leaf, (CoordCmp, CoordConst))
        for d in ((leaf.dim_a, leaf.dim_b) if isinstance(leaf, CoordCmp) else (leaf.dim,))
        if not 0 <= d < arity
    ]
    if bad:
        raise PredicateArity(
            f"predicate references dimension {show(min(bad))} of a {arity}-d array"
        )
