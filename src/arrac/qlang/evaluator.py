"""Static arity checking and eager evaluation of expression trees.

``typecheck`` predicts each node's result shape without touching data:
arrays carry an arity, partition forms carry the origin arity of the
placement they will build.  ``evaluate`` checks the tree, rewrites it with
:func:`arrac.qlang.planner.plan`, then maps the planned tree onto the engine
operators bottom-up; any engine error is re-raised with the source span of
the responsible node attached, so the command line can point at it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    ArityError,
    ArracError,
    BadSlices,
    BadStep,
    PredicateArity,
    UnboundName,
)
from ..predicates import check_dims
from ..transforms import check_step
from .. import algebra, distribution
from ..distribution import _check_slices
from . import ast


@dataclass(frozen=True, slots=True)
class Kind:
    """Predicted result shape: an array of some arity, or a placement."""

    sort: str  # "array" | "placement"
    arity: int

    def __str__(self):
        return f"{self.sort}({self.arity})"


def _raise(exc: ArracError, node: ast.Expr):
    if exc.span is None:
        exc.span = node.span
    raise exc


def typecheck(expr: ast.Expr, catalog: ast.Catalog) -> Kind:
    """Predict the result shape, or raise UnboundName / ArityError."""
    if isinstance(expr, ast.Ref):
        array = catalog.lookup(expr.name)
        if array is None:
            _raise(UnboundName(f"{expr.name!r} is not bound in the catalog"), expr)
        return Kind("array", array.arity)
    takes, rule, _, _ = _OPERATORS[type(expr)]
    arities = []
    for f in ast.OPERANDS[type(expr)]:
        kind = typecheck(getattr(expr, f), catalog)
        if kind.sort != takes:
            name = type(expr).__name__.lower()
            _raise(ArityError(f"{name} applies to {_TAKES[takes]}"), expr)
        arities.append(kind.arity)
    try:
        return rule(expr, *arities)
    except (ArityError, BadSlices, BadStep, PredicateArity) as exc:
        _raise(ArityError(str(exc)), expr)


def _eval(expr: ast.Expr, catalog: ast.Catalog):
    try:
        if isinstance(expr, ast.Ref):
            array = catalog.lookup(expr.name)
            if array is None:
                raise UnboundName(f"{expr.name!r} is not bound in the catalog")
            return array
        _, _, module, name = _OPERATORS[type(expr)]
        operands = ast.OPERANDS[type(expr)]
        args = [
            _eval(getattr(expr, f), catalog) if f in operands else getattr(expr, f)
            for f in ast.ARGS[type(expr)]
        ]
        return getattr(module, name)(*args)
    except ArracError as exc:
        if exc.span is None:
            exc.span = expr.span
        raise


def evaluate(expr: ast.Expr, catalog: ast.Catalog):
    """Typecheck, plan, then evaluate bottom-up; returns an Array (or a
    Placement for bare partition forms).  Shape errors surface before any
    data is touched, and the plan gives the result and the error that the
    tree as written would give."""
    from .planner import plan  # the planner imports typecheck from here

    typecheck(expr, catalog)
    return _eval(plan(expr, catalog)[0], catalog)


def _project(node, arity):
    for index in node.indexes:
        if len(index) != arity:
            raise ArityError(
                f"project index {index!r} has {len(index)} coordinates, "
                f"operand has arity {arity}"
            )
    return Kind("array", arity)


def _select(node, arity):
    check_dims(node.pred, arity)
    return Kind("array", arity)


def _transform(node, arity):
    for step in node.steps:
        arity = check_step(step, arity)
    return Kind("array", arity)


def _union(node, a, b):
    if a != b:
        raise ArityError(f"union of arity {a} with arity {b}")
    return Kind("array", a)


def _cross(node, a, b):
    return Kind("array", a + b)


def _semijoin(node, a, b):
    """Check the join pairs; a semijoin or an antijoin keeps the left arity."""
    for da, db in node.on:
        if not (0 <= da < a and 0 <= db < b):
            raise ArityError(f"join pair {da}:{db} is outside arities ({a}, {b})")
    return Kind("array", a)


def _equijoin(node, a, b):
    return Kind("array", _semijoin(node, a, b).arity + b)


def _vpartition(node, arity):
    if not node.predicates:
        raise ArityError("vpartition needs at least one predicate")
    for pred in node.predicates:
        check_dims(pred, arity)
    return Kind("placement", arity)


def _hpartition(node, arity):
    # width is a data property, so only the static slice shape is checkable
    # here; the width match is checked at evaluation
    _check_slices(node.slices, None)
    return Kind("placement", arity)


def _reassemble(node, arity):
    return Kind("array", arity)


# What an operator applies to, by the sort its operands take.
_TAKES = {"array": "arrays, not placements", "placement": "a placement"}

# Each operator: the sort its operands take, the kind rule that checks its
# other arguments and gives its result's kind from its operands' arities,
# and the engine function that evaluates it, looked up when it is called.
_OPERATORS = {
    ast.Project: ("array", _project, algebra, "project"),
    ast.Select: ("array", _select, algebra, "select"),
    ast.Cross: ("array", _cross, algebra, "cross"),
    ast.Transform: ("array", _transform, algebra, "transform"),
    ast.Union: ("array", _union, algebra, "union"),
    ast.EquiJoin: ("array", _equijoin, algebra, "equi_join"),
    ast.SemiJoin: ("array", _semijoin, algebra, "semi_join"),
    ast.AntiJoin: ("array", _semijoin, algebra, "anti_join"),
    ast.VPartition: ("array", _vpartition, distribution, "partition_vertical"),
    ast.HPartition: ("array", _hpartition, distribution, "partition_horizontal"),
    ast.Reassemble: ("placement", _reassemble, distribution, "reassemble"),
}
