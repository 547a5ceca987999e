"""Canonical text for expression trees: parse(print_expr(e)) == e for every
tree that typechecks.

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
    children,
)
from ..transforms import Step
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


# Each connective's prefix, separator and the child kinds it parenthesizes,
# where the grammar's precedence would otherwise reassociate the child.
_CONNECTIVES = {
    Not: ("not ", "", (And, Or)), And: ("", " and ", (And, Or)), Or: ("", " or ", (Or,))
}


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
    if type(pred) in _CONNECTIVES:
        prefix, sep, grouped = _CONNECTIVES[type(pred)]
        subs = children(pred)
        parts = (f"({print_pred(c)})" if isinstance(c, grouped) else print_pred(c) for c in subs)
        return prefix + sep.join(parts)
    raise TypeError(f"not a predicate: {pred!r}")


def _index_tuple(index) -> str:
    return "(" + ", ".join(str(c) for c in index) + ")"


def print_step(step: Step) -> str:
    name, fields = _STEPS[type(step)]
    args = (_PRINTERS[form](getattr(step, f)) for f, form in fields)
    return f"{name}({', '.join(args)})"


def print_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Ref):
        return expr.name
    args = (_PRINTERS[f](getattr(expr, f)) for f in ast.ARGS[type(expr)])
    return f"{type(expr).__name__.lower()}({', '.join(args)})"


def _table(entries, key) -> str:
    return "{" + ", ".join(f"{key(k)}: {v}" for k, v in entries) + "}"


# The printer of each argument form, as the parser's _READERS reads it.
_PRINTERS = {
    "child": print_expr,
    "left": print_expr,
    "right": print_expr,
    "indexes": lambda indexes: "{" + ", ".join(map(_index_tuple, indexes)) + "}",
    "pred": print_pred,
    "predicates": lambda preds: ", ".join(map(print_pred, preds)),
    "steps": lambda steps: "[" + ", ".join(map(print_step, steps)) + "]",
    "on": lambda on: "on(" + ", ".join(f"{a}:{b}" for a, b in on) + ")",
    "slices": lambda slices: "[" + ", ".join(
        "{" + ", ".join(map(str, g)) + "}" for g in slices
    ) + "]",
    "dim": str,
    "dims": lambda dims: ", ".join(map(str, dims)),
    "position": str,
    "int": str,
    "intmap": lambda table: _table(table, str),
    "indexmap": lambda table: _table(table, _index_tuple),
}
_STEPS = {
    cls: (name, tuple(zip(ast.ARGS[cls], forms)))
    for name, (cls, forms) in ast.STEPS.items()
}
