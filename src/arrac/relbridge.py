"""Encoding relational tables as two-dimensional arrays.

A table becomes a matrix whose column dimension is enumerated: coordinate c
on dimension 1 carries the c-th column's name through a
:class:`~arrac.arrfile.DimensionLabels` map.  Row dimension 0 is either the
row number or, when a key column is declared, the key values themselves.
Cells holding whole matrices are stored as nested array values, so the
encoding is recursive on the type level.  ``read_delimited`` and
``format_delimited`` carry a table between delimited text and its encoding.
"""

from __future__ import annotations

import csv
import io
import os
import re
from typing import Optional, Sequence

from . import algebra, arrfile
from .arrfile import DimensionLabels, check_label
from .core import (
    Array, ArrayV, FloatV, IntV, Record, StrV, UNDEF, Value, as_value, show, to_python,
)
from .errors import DuplicateKey, FormatError, MissingCell, SchemaMismatch
from .predicates import Cmp, CoordConst

# Each typed column's value class and the plain Python types it also takes.
# A bool is an int to Python but no cell of a typed column.  An "any" column
# takes whatever as_value does.
_TYPED = {
    "int": (IntV, (int,)),
    "float": (FloatV, (int, float)),
    "str": (StrV, (str,)),
    "array": (ArrayV, (Array,)),
}
COLUMN_TYPES = (*_TYPED, "any")

# the decimal form int() accepts; it refuses such a cell only past its digit limit
_INT_CELL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class Column(Record):
    __slots__ = ("name", "type_tag")

    def __init__(self, name: str, type_tag: str = "any"):
        check_label(name)
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
    if raw is None or raw is UNDEF:
        return UNDEF
    if tag == "any":
        try:
            return as_value(raw)
        except TypeError:
            pass
    else:
        cls, plain = _TYPED[tag]
        if isinstance(raw, cls):
            return raw
        if isinstance(raw, plain) and not isinstance(raw, bool):
            return cls(raw)
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


def _infer_column(cells) -> str:
    """The type tag of a column, from its cells in row order (row 2 first)."""
    tags = set()
    for row, cell in enumerate(cells, start=2):
        if cell == "":
            continue
        try:
            int(cell)
            tags.add("int")
            continue
        except ValueError:
            if _INT_CELL.fullmatch(cell):  # int() refused it for its length only
                raise FormatError(f"row {row}: {arrfile.too_many_digits()}", line=row) from None
        try:
            if float(cell) == float(cell):  # refuse NaN
                tags.add("float")
                continue
        except ValueError:
            pass
        tags.add("str")
    if not tags:
        return "str"
    if tags == {"int"}:
        return "int"
    if tags <= {"int", "float"}:
        return "float"
    return "str"


def read_delimited(path, delimiter: str = ",") -> tuple:
    """The UTF-8 delimited file at ``path`` as :func:`encode_table` encodes
    it, with ``*`` marking the key column in the header and each column's
    type inferred from its cells; a fault in the file is a FormatError
    whose ``path`` is the file."""
    try:
        rows = list(csv.reader(io.StringIO(arrfile.read_text(path), newline=""), delimiter=delimiter))
        if not rows or not rows[0]:
            raise FormatError("missing header line", line=1)
        header, data = rows[0], rows[1:]
        key_column = None
        names = []
        for raw in header:
            name = raw.strip()
            if name.startswith("*"):
                name = name[1:]
                if key_column is not None:
                    raise FormatError("only one key column may be marked", line=1)
                key_column = name
            names.append(name)
        width = len(names)
        for r, row in enumerate(data, start=2):
            if len(row) != width:
                raise FormatError(f"row has {len(row)} cells, header has {width}", line=r)
        columns = []
        for c, name in enumerate(names):
            tag = _infer_column([row[c] for row in data])
            try:
                columns.append(Column(name, tag))
            except ValueError as exc:
                raise FormatError(f"bad column name {name!r}: {exc}", line=1) from exc
        try:
            schema = TableSchema(tuple(columns), key_column=key_column)
        except ValueError as exc:
            raise FormatError(f"bad header: {exc}", line=1) from exc
    except FormatError as exc:
        exc.path = os.fspath(path)
        raise
    coerce = [_TYPED[col.type_tag][0] for col in columns]
    return encode_table(
        schema, [[None if cell == "" else f(cell) for f, cell in zip(coerce, row)] for row in data]
    )


def _cell_text(py) -> str:
    if py is None:
        return ""
    if isinstance(py, int):
        return str(py)
    if isinstance(py, float):
        return repr(py)
    if isinstance(py, str):
        return py
    return arrfile.format_value(as_value(py))


def format_delimited(array: Array, labels: Optional[DimensionLabels], delimiter: str = ",") -> str:
    """The delimited text of a table encoding, header and rows; a
    SchemaMismatch without dimension-1 labels, for a dimension-1 label
    that starts with ``*`` (:func:`read_delimited` would take it for the
    key marker), or for a cell at a dimension-1 coordinate that no label
    names."""
    if labels is None or not labels.labels_for(1):
        raise SchemaMismatch(
            "array carries no column labels on dimension 1; not a table encoding"
        )
    by_coord = sorted(labels.labels_for(1).items(), key=lambda kv: kv[1])
    for name, _ in by_coord:
        if name.startswith("*"):
            raise SchemaMismatch(
                f"column label {name!r} starts with '*', which a table header "
                "reads as the key marker"
            )
    rows = decode_table(array, labels, TableSchema(tuple(Column(n) for n, _ in by_coord)))
    coords = {c for _, c in by_coord}
    unlabelled = [index for index in array.support() if index[1] not in coords]
    if unlabelled:
        raise SchemaMismatch(
            f"index {show(min(unlabelled))} lies in no labelled column on dimension 1"
        )
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow([name for name, _ in by_coord])
    writer.writerows([_cell_text(cell) for cell in row] for row in rows)
    return out.getvalue()
