"""Rule-based rewriting of checked expression trees.

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

from ..predicates import And, Cmp, CoordCmp, Predicate, children
from . import ast
from .evaluator import typecheck


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
