"""Textual query language: parser, canonical printer, checker, planner, evaluator."""

from .. import _lazy_exports

# Each public name by the module that defines it, imported on first use as in
# ``arrac``, so that a query loads no printer it does not print with.
_NAMES = {
    "ast": ("AntiJoin", "Catalog", "Cross", "EquiJoin", "Expr", "HPartition", "Project",
            "Reassemble", "Ref", "Select", "SemiJoin", "Transform", "Union", "VPartition"),
    "evaluator": ("Kind", "evaluate", "plan", "typecheck"),
    "parser": ("parse", "parse_predicate", "parse_slices"),
    "printer": ("format_literal", "print_expr", "print_pred", "print_step"),
}
_ORIGIN = {name: module for module, names in _NAMES.items() for name in names}

__getattr__, __dir__ = _lazy_exports(globals(), _NAMES, _ORIGIN)

__all__ = sorted(_ORIGIN)
