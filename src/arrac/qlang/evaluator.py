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


def _array_operand(kind: Kind, node: ast.Expr, opname: str) -> int:
    if kind.sort != "array":
        _raise(ArityError(f"{opname} applies to arrays, not placements"), node)
    return kind.arity


def typecheck(expr: ast.Expr, catalog: ast.Catalog) -> Kind:
    """Predict the result shape, or raise UnboundName / ArityError."""
    if isinstance(expr, ast.Ref):
        array = catalog.lookup(expr.name)
        if array is None:
            _raise(UnboundName(f"{expr.name!r} is not bound in the catalog"), expr)
        return Kind("array", array.arity)

    if isinstance(expr, ast.Project):
        arity = _array_operand(typecheck(expr.child, catalog), expr, "project")
        for index in expr.indexes:
            if len(index) != arity:
                _raise(
                    ArityError(
                        f"project index {index!r} has {len(index)} coordinates, "
                        f"operand has arity {arity}"
                    ),
                    expr,
                )
        return Kind("array", arity)

    if isinstance(expr, ast.Select):
        arity = _array_operand(typecheck(expr.child, catalog), expr, "select")
        try:
            check_dims(expr.pred, arity)
        except PredicateArity as exc:
            _raise(ArityError(str(exc)), expr)
        return Kind("array", arity)

    if isinstance(expr, ast.Cross):
        a = _array_operand(typecheck(expr.left, catalog), expr, "cross")
        b = _array_operand(typecheck(expr.right, catalog), expr, "cross")
        return Kind("array", a + b)

    if isinstance(expr, ast.Transform):
        arity = _array_operand(typecheck(expr.child, catalog), expr, "transform")
        for step in expr.steps:
            try:
                arity = check_step(step, arity)
            except BadStep as exc:
                _raise(ArityError(str(exc)), expr)
        return Kind("array", arity)

    if isinstance(expr, ast.Union):
        a = _array_operand(typecheck(expr.left, catalog), expr, "union")
        b = _array_operand(typecheck(expr.right, catalog), expr, "union")
        if a != b:
            _raise(ArityError(f"union of arity {a} with arity {b}"), expr)
        return Kind("array", a)

    if isinstance(expr, (ast.EquiJoin, ast.SemiJoin, ast.AntiJoin)):
        opname = type(expr).__name__.lower()
        a = _array_operand(typecheck(expr.left, catalog), expr, opname)
        b = _array_operand(typecheck(expr.right, catalog), expr, opname)
        for da, db in expr.on:
            if not (0 <= da < a and 0 <= db < b):
                _raise(
                    ArityError(
                        f"join pair {da}:{db} is outside arities ({a}, {b})"
                    ),
                    expr,
                )
        return Kind("array", a + b if isinstance(expr, ast.EquiJoin) else a)

    if isinstance(expr, ast.VPartition):
        arity = _array_operand(typecheck(expr.child, catalog), expr, "vpartition")
        if not expr.predicates:
            _raise(ArityError("vpartition needs at least one predicate"), expr)
        for pred in expr.predicates:
            try:
                check_dims(pred, arity)
            except PredicateArity as exc:
                _raise(ArityError(str(exc)), expr)
        return Kind("placement", arity)

    if isinstance(expr, ast.HPartition):
        arity = _array_operand(typecheck(expr.child, catalog), expr, "hpartition")
        try:
            # width is a data property, so only the static slice shape is
            # checkable here; the width match is checked at evaluation
            _check_slices(expr.slices, None)
        except BadSlices as exc:
            _raise(ArityError(str(exc)), expr)
        return Kind("placement", arity)

    if isinstance(expr, ast.Reassemble):
        kind = typecheck(expr.child, catalog)
        if kind.sort != "placement":
            _raise(ArityError("reassemble applies to a placement"), expr)
        return Kind("array", kind.arity)

    raise TypeError(f"not an expression: {expr!r}")


def _eval(expr: ast.Expr, catalog: ast.Catalog):
    try:
        if isinstance(expr, ast.Ref):
            array = catalog.lookup(expr.name)
            if array is None:
                raise UnboundName(f"{expr.name!r} is not bound in the catalog")
            return array
        if isinstance(expr, ast.Project):
            return algebra.project(_eval(expr.child, catalog), expr.indexes)
        if isinstance(expr, ast.Select):
            return algebra.select(_eval(expr.child, catalog), expr.pred)
        if isinstance(expr, ast.Cross):
            return algebra.cross(_eval(expr.left, catalog), _eval(expr.right, catalog))
        if isinstance(expr, ast.Transform):
            return algebra.transform(_eval(expr.child, catalog), expr.steps)
        if isinstance(expr, ast.Union):
            return algebra.union(_eval(expr.left, catalog), _eval(expr.right, catalog))
        if isinstance(expr, ast.EquiJoin):
            return algebra.equi_join(
                _eval(expr.left, catalog), _eval(expr.right, catalog), expr.on
            )
        if isinstance(expr, ast.SemiJoin):
            return algebra.semi_join(
                _eval(expr.left, catalog), _eval(expr.right, catalog), expr.on
            )
        if isinstance(expr, ast.AntiJoin):
            return algebra.anti_join(
                _eval(expr.left, catalog), _eval(expr.right, catalog), expr.on
            )
        if isinstance(expr, ast.VPartition):
            return distribution.partition_vertical(
                _eval(expr.child, catalog), expr.predicates
            )
        if isinstance(expr, ast.HPartition):
            return distribution.partition_horizontal(
                _eval(expr.child, catalog), expr.slices
            )
        if isinstance(expr, ast.Reassemble):
            return distribution.reassemble(_eval(expr.child, catalog))
    except ArracError as exc:
        if exc.span is None:
            exc.span = expr.span
        raise
    raise TypeError(f"not an expression: {expr!r}")


def evaluate(expr: ast.Expr, catalog: ast.Catalog):
    """Typecheck, plan, then evaluate bottom-up; returns an Array (or a
    Placement for bare partition forms).  Shape errors surface before any
    data is touched, and the plan gives the result and the error that the
    tree as written would give."""
    from .planner import plan  # the planner imports typecheck from here

    typecheck(expr, catalog)
    return _eval(plan(expr, catalog)[0], catalog)
