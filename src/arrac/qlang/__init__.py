"""Textual query language: parser, canonical printer, checker, evaluator."""

from .ast import (
    AntiJoin,
    Catalog,
    Cross,
    EquiJoin,
    Expr,
    HPartition,
    Project,
    Reassemble,
    Ref,
    Select,
    SemiJoin,
    Transform,
    Union,
    VPartition,
)
from .evaluator import Kind, evaluate, typecheck
from .parser import parse, parse_predicate, parse_slices
from .planner import plan
from .printer import format_literal, print_expr, print_pred, print_step

__all__ = [
    "AntiJoin",
    "Catalog",
    "Cross",
    "EquiJoin",
    "Expr",
    "HPartition",
    "Kind",
    "Project",
    "Reassemble",
    "Ref",
    "Select",
    "SemiJoin",
    "Transform",
    "Union",
    "VPartition",
    "evaluate",
    "format_literal",
    "parse",
    "parse_predicate",
    "parse_slices",
    "plan",
    "print_expr",
    "print_pred",
    "print_step",
    "typecheck",
]
