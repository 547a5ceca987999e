"""Encoding relational tables as two-dimensional arrays.

A table becomes a matrix whose column dimension is enumerated: coordinate c
on dimension 1 carries the c-th column's name through a
:class:`DimensionLabels` map.  Row dimension 0 is either the row number or,
when a key column is declared, the key values themselves.  Cells holding
whole matrices are stored as nested array values, so the encoding is
recursive on the type level.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .core import Array, ArrayV, FloatV, IntV, Record, StrV, UNDEF, Undef, Value, to_python
from .errors import DuplicateKey, MissingCell, SchemaMismatch, UnknownLabel
from .predicates import Cmp, CoordConst
from . import algebra

COLUMN_TYPES = ("int", "float", "str", "array", "any")


class DimensionLabels:
    """Bidirectional label maps, one per labelled dimension.

    Within a dimension labels and coordinates pair up bijectively; unlabeled
    dimensions simply have no entry.
    """

    __slots__ = ("_by_dim",)

    def __init__(self, per_dim: Mapping[int, Mapping[str, int]]):
        by_dim = {}
        for dim, mapping in per_dim.items():
            dim = int(dim)
            forward = dict(mapping)
            coords = list(forward.values())
            if len(set(coords)) != len(coords):
                raise ValueError(f"dimension {dim}: two labels share a coordinate")
            for label in forward:
                _check_label(label)
            by_dim[dim] = forward
        self._by_dim = by_dim

    def dims(self) -> list:
        return sorted(self._by_dim)

    def labels_for(self, dim: int) -> dict:
        return dict(self._by_dim.get(dim, {}))

    def coord_of(self, dim: int, label: str) -> int:
        try:
            return self._by_dim[dim][label]
        except KeyError:
            raise UnknownLabel(f"no label {label!r} on dimension {dim}") from None

    def __eq__(self, other):
        if not isinstance(other, DimensionLabels):
            return NotImplemented
        return self._by_dim == other._by_dim

    def __repr__(self):
        return f"DimensionLabels({self._by_dim!r})"


def _check_label(label: str) -> str:
    if not label or any(ch.isspace() or ch == "=" for ch in label):
        raise ValueError(f"label {label!r} must be nonempty without spaces or '='")
    return label


class Column(Record):
    __slots__ = ("name", "type_tag")

    def __init__(self, name: str, type_tag: str = "any"):
        _check_label(name)
        if type_tag not in COLUMN_TYPES:
            raise ValueError(f"unknown column type {type_tag!r}")
        super().__init__(name, type_tag)


class TableSchema(Record):
    __slots__ = ("columns", "key_column")

    def __init__(self, columns: Sequence[Column], key_column: Optional[str] = None):
        columns = tuple(columns)
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if key_column is not None and key_column not in names:
            raise ValueError(f"key column {key_column!r} is not a column")
        super().__init__(columns, key_column)

    def column_index(self, name: str) -> int:
        for k, c in enumerate(self.columns):
            if c.name == name:
                return k
        raise KeyError(name)


def _encode_cell(raw, tag: str, row: int, name: str) -> Value:
    if raw is None or isinstance(raw, Undef):
        return UNDEF
    if tag == "int":
        if isinstance(raw, IntV):
            return raw
        if isinstance(raw, int) and not isinstance(raw, bool):
            return IntV(raw)
    elif tag == "float":
        if isinstance(raw, FloatV):
            return raw
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return FloatV(float(raw))
    elif tag == "str":
        if isinstance(raw, StrV):
            return raw
        if isinstance(raw, str):
            return StrV(raw)
    elif tag == "array":
        if isinstance(raw, ArrayV):
            return raw
        if isinstance(raw, Array):
            return ArrayV(raw)
    elif tag == "any":
        from .core import as_value

        try:
            return as_value(raw)
        except TypeError:
            pass
    raise SchemaMismatch(
        f"row {row}, column {name!r}: {raw!r} does not fit type {tag!r}"
    )


def encode_table(schema: TableSchema, rows: Sequence[Sequence]) -> tuple:
    """Encode rows as a 2-d array plus the column-dimension labels.

    Returns ``(array, labels)``.  With a key column declared, its values
    (distinct non-negative integers) become the dimension-0 coordinates;
    otherwise rows number 0..n-1.
    """
    ncols = len(schema.columns)
    labels = DimensionLabels({1: {c.name: k for k, c in enumerate(schema.columns)}})
    key_pos = None
    if schema.key_column is not None:
        key_pos = schema.column_index(schema.key_column)

    pairs = []
    seen_keys: dict = {}
    for r, row in enumerate(rows):
        row = tuple(row)
        if len(row) != ncols:
            raise SchemaMismatch(
                f"row {r} has {len(row)} cells, schema has {ncols} columns"
            )
        if key_pos is None:
            coord = r
        else:
            key = row[key_pos]
            if isinstance(key, IntV):
                key = key.value
            if not isinstance(key, int) or isinstance(key, bool) or key < 0:
                raise SchemaMismatch(
                    f"row {r}: key {key!r} must be a non-negative integer"
                )
            if key in seen_keys:
                raise DuplicateKey(
                    f"rows {seen_keys[key]} and {r} share key {key}"
                )
            seen_keys[key] = r
            coord = key
        for c, col in enumerate(schema.columns):
            pairs.append(((coord, c), _encode_cell(row[c], col.type_tag, r, col.name)))
    return Array(2, pairs), labels


def decode_table(array: Array, labels: DimensionLabels, schema: TableSchema) -> list:
    """Inverse of encode_table: rows in ascending dimension-0 order.

    Cell values come back as plain Python (UNDEF as None, nested arrays as
    Array instances).  Raises MissingCell when a support row lacks a column
    and UnknownLabel when the schema names a column absent from the labels.
    """
    if array.arity != 2:
        raise SchemaMismatch(f"expected a 2-d array, got arity {array.arity}")
    coords = [labels.coord_of(1, col.name) for col in schema.columns]
    row_ids = sorted({i[0] for i in array.support()})
    rows = []
    for r in row_ids:
        row = []
        for col, c in zip(schema.columns, coords):
            cell = array.get((r, c))
            if cell is None:
                raise MissingCell(
                    f"row {r} has no cell for column {col.name!r}",
                    row=r,
                    column=col.name,
                )
            row.append(to_python(cell))
        rows.append(tuple(row))
    return rows


def label_select(array: Array, labels: DimensionLabels, dim: int, label: str) -> Array:
    """Select the associations whose ``dim`` coordinate carries ``label``."""
    coord = labels.coord_of(dim, label)
    return algebra.select(array, CoordConst(Cmp.EQ, dim, coord))
