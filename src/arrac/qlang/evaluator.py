"""Arity checking, rule-based planning and eager evaluation of expression trees.

``evaluate`` checks the tree, plans it with :func:`plan`, then maps the
planned tree onto the engine operators bottom-up; an engine error gets the
source span of the responsible node, so the command line can point at it.
``typecheck`` is the same evaluation on empty arrays of the bound arities:
the operators decide each node's shape with the checks they run on data, and
no second copy of those rules lives here.

``plan`` applies two local rules bottom-up until neither fires, in the
spirit of the rule sets of Graefe's Volcano and Cascades optimizers:

``select-fusion``
    ``select(select(X, p), q)`` becomes ``select(X, p and q)``.
``cross-to-equijoin``
    ``select(cross(L, R), p)`` becomes ``equijoin(L, R, on)``, topped by a
    ``select`` with the rest of ``p`` if any is left.  ``on`` takes every
    top-level conjunct of ``p`` (looking through nested ``and``) that equates
    a dimension of ``L`` with a dimension of ``R``; this is the law
    :func:`arrac.algebra.join_condition` states.  Conjuncts under ``or`` or
    ``not``, equalities within one side and value comparisons stay in the
    residual ``select``.  A cross is the equijoin on no dimensions, so over
    ``equijoin(L, R, on)`` the rule appends the new pairs to ``on``.

Neither rule changes a result or an error: predicates are total, children
are still evaluated left then right, and every node a rule builds keeps the
span of the node it replaces, so runtime errors point at the user's text.
"""

from __future__ import annotations

from functools import cache

from ..core import Array, Record
from ..distribution import Placement
from ..errors import (
    ArityError, ArityMismatch, ArracError, BadSlices, BadStep, PredicateArity,
)
from ..predicates import And, Cmp, CoordCmp, Predicate, children
from .. import algebra, distribution
from . import ast


class Kind(Record):
    """Predicted result shape: an array of some arity, or a placement.

    ``sort`` is "array" or "placement".
    """

    __slots__ = ("sort", "arity")

    def __str__(self):
        return f"{self.sort}({self.arity})"


# With no data to look at, an operator can only fail on its operands' shapes.
_SHAPE_ERRORS = (ArityMismatch, BadSlices, BadStep, PredicateArity)


@cache
def _empty(arity: int) -> Array:
    """One empty array per arity: arrays are immutable, so every check shares it."""
    return Array._of(arity, {})


class _Empty:
    """A catalog's shape: each bound name resolves to an empty array of its
    arity, and the data is never read."""

    __slots__ = ("_catalog",)

    def __init__(self, catalog: ast.Catalog):
        self._catalog = catalog

    def array(self, name: str) -> Array:
        return _empty(self._catalog.array(name).arity)


def typecheck(expr: ast.Expr, catalog: ast.Catalog) -> Kind:
    """Predict the result shape, or raise UnboundName / ArityError: evaluate
    ``expr`` as written on empty arrays of the bound arities, and make a shape
    error that an operator raises an ArityError at its node."""
    try:
        result = _eval(expr, _Empty(catalog))
    except _SHAPE_ERRORS as exc:
        error = ArityError(str(exc))
        error.span = exc.span
        raise error from exc
    if isinstance(result, Placement):
        return Kind("placement", result.origin_arity)
    return Kind("array", result.arity)


def _eval(expr: ast.Expr, catalog: ast.Catalog):
    try:
        if isinstance(expr, ast.Ref):
            return catalog.array(expr.name)
        takes, module, name = _OPERATORS[type(expr)]
        operands = ast.OPERANDS[type(expr)]
        args = []
        for f in ast.ARGS[type(expr)]:
            arg = getattr(expr, f)
            if f in operands:
                arg = _eval(arg, catalog)
                if not isinstance(arg, takes):
                    op = type(expr).__name__.lower()
                    raise ArityError(f"{op} applies to {_TAKES[takes]}")
            args.append(arg)
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
    typecheck(expr, catalog)
    return _eval(plan(expr, catalog)[0], catalog)


def plan(expr: ast.Expr, catalog: ast.Catalog) -> tuple:
    """Rewrite a tree that typechecks against ``catalog``.

    Returns the planned tree and the rewrites that fired, in order, as
    ``(rule name, span of the rewritten node)`` pairs.
    """
    fired: list = []
    return _plan(expr, catalog, fired), fired


def _plan(expr, catalog, fired):
    planned = {}
    for f in ast.OPERANDS[type(expr)]:
        operand = getattr(expr, f)
        if (new := _plan(operand, catalog, fired)) is not operand:
            planned[f] = new
    if planned:
        args = (planned.get(f, getattr(expr, f)) for f in ast.ARGS[type(expr)])
        expr = type(expr)(*args, expr.span)
    if not isinstance(expr, ast.Select):
        return expr
    # the child is planned, so a child select has no select below it
    child = expr.child
    if isinstance(child, ast.Select):
        expr = ast.Select(
            child.child, And(tuple(_conjuncts(child.pred) + _conjuncts(expr.pred))), expr.span
        )
        fired.append(("select-fusion", expr.span))
    if isinstance(expr.child, (ast.Cross, ast.EquiJoin)):
        return _cross_to_equijoin(expr, catalog, fired)
    return expr


def _cross_to_equijoin(select: ast.Select, catalog, fired):
    join = select.child
    split = typecheck(join.left, catalog).arity
    on, rest = [], []
    for conjunct in _conjuncts(select.pred):
        if isinstance(conjunct, CoordCmp) and conjunct.op is Cmp.EQ:
            low, high = sorted((conjunct.dim_a, conjunct.dim_b))
            if low < split <= high:
                on.append((low, high - split))
                continue
        rest.append(conjunct)
    if not on:
        return select
    fired.append(("cross-to-equijoin", select.span))
    # a cross is the equijoin on no dimensions
    on = getattr(join, "on", ()) + tuple(on)
    join = ast.EquiJoin(join.left, join.right, on, select.span)
    if not rest:
        return join
    return ast.Select(join, rest[0] if len(rest) == 1 else And(tuple(rest)), select.span)


def _conjuncts(pred: Predicate) -> list:
    """The top-level conjuncts of ``pred``, looking through nested ``And``."""
    if not isinstance(pred, And):
        return [pred]
    return [c for child in children(pred) for c in _conjuncts(child)]


# What an operator applies to, by the class its operands must be.
_TAKES = {Array: "arrays, not placements", Placement: "a placement"}

# Each operator: the class its operands must be, and the engine function that
# evaluates it, looked up when it is called.
_OPERATORS = {
    ast.Project: (Array, algebra, "project"),
    ast.Select: (Array, algebra, "select"),
    ast.Cross: (Array, algebra, "cross"),
    ast.Transform: (Array, algebra, "transform"),
    ast.Union: (Array, algebra, "union"),
    ast.EquiJoin: (Array, algebra, "equi_join"),
    ast.SemiJoin: (Array, algebra, "semi_join"),
    ast.AntiJoin: (Array, algebra, "anti_join"),
    ast.VPartition: (Array, distribution, "partition_vertical"),
    ast.HPartition: (Array, distribution, "partition_horizontal"),
    ast.Reassemble: (Placement, distribution, "reassemble"),
}
