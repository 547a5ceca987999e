"""Textual query language: parser, canonical printer, checker, evaluator."""

import sys

# Each public name by the module that defines it.  Names and submodules are
# imported on first use (PEP 562), as in ``arrac``, so that a query loads no
# printer it does not print with.
_NAMES = {
    "ast": ("AntiJoin", "Catalog", "Cross", "EquiJoin", "Expr", "HPartition", "Project",
            "Reassemble", "Ref", "Select", "SemiJoin", "Transform", "Union", "VPartition"),
    "evaluator": ("Kind", "evaluate", "typecheck"),
    "parser": ("parse", "parse_predicate", "parse_slices"),
    "planner": ("plan",),
    "printer": ("format_literal", "print_expr", "print_pred", "print_step"),
}
_ORIGIN = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name):
    module = name if name in _NAMES else _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime
    # does not list
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_NAMES) | set(__all__))


__all__ = sorted(_ORIGIN)
