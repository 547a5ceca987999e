"""Expression trees for the textual query language.

Each node mirrors one engine operator, so evaluating a planned tree is a
structural recursion.  Nodes are immutable and compare structurally; the
source span (line, column of the first token) is carried for diagnostics
but excluded from equality, which is what makes ``parse(print(e)) == e`` a
meaningful statement.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional, Tuple

from .. import arrfile
from ..core import Array, Record
from ..errors import UnboundName
from ..transforms import (
    Compact,
    InsertDim,
    InsertFromTable,
    Permute,
    RemapDim,
    RemoveDim,
    Translate,
)

Span = Tuple[int, int]  # (line, column), both 1-based

# A name, as the lexer reads an identifier and a catalog binds an array: ASCII.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
NAME_RE = re.compile(_NAME + r"\Z")


class Ref(Record):
    _fields = ("name",)
    __slots__ = (*_fields, "span")


class Project(Record):
    _fields = ("child", "indexes")
    __slots__ = (*_fields, "span")


class Select(Record):
    _fields = ("child", "pred")
    __slots__ = (*_fields, "span")


class Cross(Record):
    _fields = ("left", "right")
    __slots__ = (*_fields, "span")


class Transform(Record):
    _fields = ("child", "steps")
    __slots__ = (*_fields, "span")


class Union(Record):
    _fields = ("left", "right")
    __slots__ = (*_fields, "span")


class EquiJoin(Record):
    _fields = ("left", "right", "on")
    __slots__ = (*_fields, "span")


class SemiJoin(Record):
    _fields = ("left", "right", "on")
    __slots__ = (*_fields, "span")


class AntiJoin(Record):
    _fields = ("left", "right", "on")
    __slots__ = (*_fields, "span")


class VPartition(Record):
    _fields = ("child", "predicates")
    __slots__ = (*_fields, "span")


class HPartition(Record):
    _fields = ("child", "slices")
    __slots__ = (*_fields, "span")


class Reassemble(Record):
    _fields = ("child",)
    __slots__ = (*_fields, "span")


Expr = (
    Ref
    | Project
    | Select
    | Cross
    | Transform
    | Union
    | EquiJoin
    | SemiJoin
    | AntiJoin
    | VPartition
    | HPartition
    | Reassemble
)


# The operator table.  An operator is named by its class in lower case and
# takes its class's compared fields as arguments, in order; each field's
# name says its form, and "child", "left" and "right" are operands.
OPERATORS = {
    cls.__name__.lower(): cls
    for cls in (Project, Select, Cross, Transform, Union, EquiJoin, SemiJoin,
                AntiJoin, VPartition, HPartition, Reassemble)
}

# The step table: each transform step by its name in the language, its class,
# and the form of each of the class's compared fields, in order.
STEPS = {
    "permute": (Permute, ("dims",)),
    "translate": (Translate, ("dim", "int")),
    "insertdim": (InsertDim, ("position", "int")),
    "removedim": (RemoveDim, ("position",)),
    "compact": (Compact, ("dim",)),
    "remapdim": (RemapDim, ("dim", "intmap")),
    "insertfromtable": (InsertFromTable, ("position", "indexmap")),
}

# The names of every node's and step's compared fields, in order, and of
# every node's operand fields.
ARGS = {
    cls: cls._fields
    for cls in (Ref, *OPERATORS.values(), *(cls for cls, _ in STEPS.values()))
}
OPERANDS = {
    cls: tuple(f for f in ARGS[cls] if f in ("child", "left", "right"))
    for cls in (Ref, *OPERATORS.values())
}


class Catalog:
    """Named array bindings: the database the language's Refs resolve in.

    Each array is bound with the ``DimensionLabels`` it was read with, if
    any, so that writing it out again keeps them.  A name bound with
    ``bind_file`` is parsed from its exchange file the first time its array
    or labels are asked for; every other method sees it as bound already.
    """

    __slots__ = ("_bound",)

    def __init__(self, arrays: Optional[Mapping[str, Array]] = None):
        # name -> (array, labels), or the path of a file not yet parsed
        self._bound = {}
        if arrays:
            for name, array in arrays.items():
                self.bind(name, array)

    def _slot(self, name: str, slot) -> None:
        if not NAME_RE.match(name):
            raise ValueError(f"{name!r} is not a usable array name")
        self._bound[name] = slot

    def bind(self, name: str, array: Array, labels=None) -> None:
        if not isinstance(array, Array):
            raise TypeError("catalog values must be Array instances")
        self._slot(name, (array, labels))

    def bind_file(self, name: str, path) -> None:
        """Bind ``name`` to the exchange file at ``path``, parsed on first
        use; a fault found then is a FormatError naming ``path``."""
        self._slot(name, path)

    def array(self, name: str) -> Array:
        """The array bound to ``name``; UnboundName if there is none."""
        try:
            slot = self._bound[name]
        except KeyError:
            raise UnboundName(f"{name!r} is not bound in the catalog") from None
        if not isinstance(slot, tuple):
            slot = self._bound[name] = arrfile.load(slot)
        return slot[0]

    def lookup(self, name: str) -> Optional[Array]:
        return self.array(name) if name in self else None

    def labels(self, name: str):
        """The ``DimensionLabels`` bound with ``name``, or None."""
        if name not in self._bound:
            return None
        self.array(name)
        return self._bound[name][1]

    def names(self) -> list:
        return sorted(self._bound)

    def __contains__(self, name) -> bool:
        return name in self._bound

    def __len__(self) -> int:
        return len(self._bound)
