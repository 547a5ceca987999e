"""Canonical text for expression trees: parse(print_expr(e)) == e.

One canonical spelling per tree.  Spacing is fixed (", " between list items,
spaces around comparison operators) and boolean connectives are
parenthesized exactly where the grammar's precedence would otherwise
reassociate them, so printing then reparsing reproduces the tree, including
the distinction between And(a, b, c) and And(And(a, b), c).
"""

from __future__ import annotations

from ..arrfile import _quote
from ..core import Array, ArrayV, FloatV, IntV, StrV, TupleV, Undef, Value
from ..predicates import (
    And,
    CoordCmp,
    CoordConst,
    ItemCmp,
    Not,
    Or,
    Predicate,
    ValueCmp,
    _Const,
)
from ..transforms import (
    Compact,
    InsertDim,
    InsertFromTable,
    Permute,
    RemapDim,
    RemoveDim,
    Step,
    Translate,
)
from . import ast


def format_literal(value: Value) -> str:
    if isinstance(value, IntV):
        return str(value.value)
    if isinstance(value, FloatV):
        return repr(value.value)
    if isinstance(value, StrV):
        return _quote(value.value)
    if isinstance(value, Undef):
        return "undef"
    if isinstance(value, TupleV):
        return "tuple(" + ", ".join(format_literal(v) for v in value.items) + ")"
    if isinstance(value, ArrayV):
        return _array_literal(value.array)
    raise TypeError(f"not a value: {value!r}")


def _array_literal(array: Array) -> str:
    parts = [f"array{{arity={array.arity}"]
    for index, value in array.items():
        coords = ", ".join(str(c) for c in index)
        parts.append(f"; {coords} -> {format_literal(value)}")
    parts.append("}")
    return "".join(parts)


def print_pred(pred: Predicate) -> str:
    if isinstance(pred, _Const):
        return "true" if pred.truth else "false"
    if isinstance(pred, ValueCmp):
        return f"val {pred.op.value} {format_literal(pred.constant)}"
    if isinstance(pred, ItemCmp):
        return f"val[{pred.position}] {pred.op.value} {format_literal(pred.constant)}"
    if isinstance(pred, CoordCmp):
        return f"dim{pred.dim_a} {pred.op.value} dim{pred.dim_b}"
    if isinstance(pred, CoordConst):
        return f"dim{pred.dim} {pred.op.value} {pred.constant}"
    if isinstance(pred, Not):
        child = print_pred(pred.child)
        if isinstance(pred.child, (And, Or)):
            child = f"({child})"
        return f"not {child}"
    if isinstance(pred, And):
        # any nested connective needs parens or "and" would flatten it
        parts = [
            f"({print_pred(c)})" if isinstance(c, (And, Or)) else print_pred(c)
            for c in pred.children
        ]
        return " and ".join(parts)
    if isinstance(pred, Or):
        parts = [
            f"({print_pred(c)})" if isinstance(c, Or) else print_pred(c)
            for c in pred.children
        ]
        return " or ".join(parts)
    raise TypeError(f"not a predicate: {pred!r}")


def _index_tuple(index) -> str:
    return "(" + ", ".join(str(c) for c in index) + ")"


def print_step(step: Step) -> str:
    if isinstance(step, Permute):
        return "permute(" + ", ".join(str(d) for d in step.perm) + ")"
    if isinstance(step, Translate):
        return f"translate({step.dim}, {step.offset})"
    if isinstance(step, InsertDim):
        return f"insertdim({step.position}, {step.constant})"
    if isinstance(step, RemoveDim):
        return f"removedim({step.position})"
    if isinstance(step, Compact):
        return f"compact({step.dim})"
    if isinstance(step, RemapDim):
        body = ", ".join(f"{old}: {new}" for old, new in step.table)
        return f"remapdim({step.dim}, {{{body}}})"
    if isinstance(step, InsertFromTable):
        body = ", ".join(f"{_index_tuple(i)}: {c}" for i, c in step.table)
        return f"insertfromtable({step.position}, {{{body}}})"
    raise TypeError(f"not a transform step: {step!r}")


def _print_on(on) -> str:
    return "on(" + ", ".join(f"{a}:{b}" for a, b in on) + ")"


def print_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Ref):
        return expr.name
    if isinstance(expr, ast.Project):
        body = ", ".join(_index_tuple(i) for i in expr.indexes)
        return f"project({print_expr(expr.child)}, {{{body}}})"
    if isinstance(expr, ast.Select):
        return f"select({print_expr(expr.child)}, {print_pred(expr.pred)})"
    if isinstance(expr, ast.Cross):
        return f"cross({print_expr(expr.left)}, {print_expr(expr.right)})"
    if isinstance(expr, ast.Transform):
        steps = ", ".join(print_step(s) for s in expr.steps)
        return f"transform({print_expr(expr.child)}, [{steps}])"
    if isinstance(expr, ast.Union):
        return f"union({print_expr(expr.left)}, {print_expr(expr.right)})"
    if isinstance(expr, ast.EquiJoin):
        return f"equijoin({print_expr(expr.left)}, {print_expr(expr.right)}, {_print_on(expr.on)})"
    if isinstance(expr, ast.SemiJoin):
        return f"semijoin({print_expr(expr.left)}, {print_expr(expr.right)}, {_print_on(expr.on)})"
    if isinstance(expr, ast.AntiJoin):
        return f"antijoin({print_expr(expr.left)}, {print_expr(expr.right)}, {_print_on(expr.on)})"
    if isinstance(expr, ast.VPartition):
        preds = ", ".join(print_pred(p) for p in expr.predicates)
        return f"vpartition({print_expr(expr.child)}, {preds})"
    if isinstance(expr, ast.HPartition):
        groups = ", ".join("{" + ", ".join(str(p) for p in g) + "}" for g in expr.slices)
        return f"hpartition({print_expr(expr.child)}, [{groups}])"
    if isinstance(expr, ast.Reassemble):
        return f"reassemble({print_expr(expr.child)})"
    raise TypeError(f"not an expression: {expr!r}")
