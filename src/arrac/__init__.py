"""Sparse n-dimensional array algebra with partitioning and a query language.

Arrays are finite partial functions from integer index tuples to tagged
values.  The operator set (project, select, cross, transform, union and the
derived joins) is closed over that model, and the same operators double as
the partitioning/reassembly machinery for distributing arrays.
"""

import sys

# Each public name by the module that defines it.  Names and submodules are
# imported on first use (PEP 562), so that a command imports only the modules
# it runs.
_SUBMODULES = ("arrfile", "errors", "manifest", "qlang")
_ORIGIN = {
    name: module
    for module, names in {
        "arrfile": ("DimensionLabels",),
        "core": ("Array", "ArrayV", "FloatV", "Index", "IntV", "StrV", "TupleV",
                 "UNDEF", "Undef", "Value", "as_value", "to_python"),
        "predicates": ("And", "Cmp", "CoordCmp", "CoordConst", "FALSE", "ItemCmp",
                       "Not", "Or", "Predicate", "TRUE", "ValueCmp", "holds"),
        "transforms": ("Compact", "InsertDim", "InsertFromTable", "Permute",
                       "RemapDim", "RemoveDim", "Step", "Translate", "record_steps"),
        "algebra": ("anti_join", "cross", "equi_join", "invert", "join_condition",
                    "project", "select", "semi_join", "transform", "union"),
        "distribution": ("Fragment", "HorizontalSplit", "Placement", "VerticalSplit",
                         "partition_horizontal", "partition_vertical", "push_select",
                         "reassemble"),
        "relbridge": ("Column", "TableSchema", "decode_table", "encode_table",
                      "label_select"),
    }.items()
    for name in names
}


def _lazy_exports(namespace: dict, submodules, origin: dict) -> tuple:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace``, which imports each of its ``submodules`` and
    each name in ``origin`` (name -> the module that defines it) on first use."""
    package = namespace["__name__"]

    def __getattr__(name):
        module = name if name in submodules else origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__ rather than importlib.import_module, which -X importtime
        # does not list
        __import__(f"{package}.{module}")
        value = sys.modules[f"{package}.{module}"]
        if module != name:
            value = namespace[name] = getattr(value, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(submodules) | set(origin))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _SUBMODULES, _ORIGIN)

__version__ = "0.1.0"

__all__ = sorted([*_ORIGIN, *_SUBMODULES])
