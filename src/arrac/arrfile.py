"""The textual exchange format for arrays.

Layout (UTF-8, LF line endings)::

    arrac v1 arity=<n> count=<k>
    label dim=<d> <coord>=<name> <coord>=<name> ...      (optional, one per dim)
    <i1>,<i2>,...,<in> -> <value>                        (k body lines)

Values are tagged so every kind round-trips unambiguously::

    int:<n>  float:<decimal>  str:"<escaped>"  undef
    tuple(<value>,<value>,...)
    array{arity=<m>; <i..> -> <value>; ...}

Saving is canonical: body lines in lexicographic index order, label lines
sorted by dimension then coordinate, floats in shortest round-trip decimal.
Saving the same array twice therefore yields byte-identical files.
"""

from __future__ import annotations

import io
import os
from typing import Optional, Tuple

from .core import Array, ArrayV, FloatV, Index, IntV, StrV, TupleV, UNDEF, Undef, Value
from .errors import ArityMismatch, ConsistencyViolation, FormatError
from .relbridge import DimensionLabels

MAGIC = "arrac v1"

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _quote(s: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in s) + '"'


def format_value(value: Value) -> str:
    if isinstance(value, IntV):
        return f"int:{value.value}"
    if isinstance(value, FloatV):
        # repr gives the shortest decimal that round-trips a 64-bit float
        return f"float:{value.value!r}"
    if isinstance(value, StrV):
        return f"str:{_quote(value.value)}"
    if isinstance(value, Undef):
        return "undef"
    if isinstance(value, TupleV):
        return "tuple(" + ",".join(format_value(v) for v in value.items) + ")"
    if isinstance(value, ArrayV):
        inner = value.array
        parts = [f"array{{arity={inner.arity}"]
        for index, v in inner.items():
            parts.append(f"; {_format_index(index)} -> {format_value(v)}")
        parts.append("}")
        return "".join(parts)
    raise TypeError(f"not a value: {value!r}")


def _format_index(index: Index) -> str:
    return ",".join(str(c) for c in index)


class _Cursor:
    """Character cursor over one body line's value part."""

    __slots__ = ("text", "pos", "line")

    def __init__(self, text: str, line: Optional[int]):
        self.text = text
        self.pos = 0
        self.line = line

    def fail(self, message: str):
        raise FormatError(f"{message} at column {self.pos + 1}", line=self.line)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str):
        if not self.text.startswith(literal, self.pos):
            self.fail(f"expected {literal!r}")
        self.pos += len(literal)

    def skip_spaces(self):
        while self.peek() == " ":
            self.pos += 1

    def int_token(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def float_token(self) -> float:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit() or self.peek() in ".eE+-" or self.peek().isalpha():
            # alpha admits inf; +- only valid inside an exponent, float()
            # rejects misuse below
            if self.peek() in "+-" and self.text[self.pos - 1] not in "eE":
                break
            self.pos += 1
        try:
            x = float(self.text[start:self.pos])
        except ValueError:
            self.fail("expected a float")
        if x != x:
            self.fail("NaN is not a storable value")
        return x

    def string_token(self) -> str:
        self.take('"')
        out = []
        while True:
            if self.eof():
                self.fail("unterminated string")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                esc = self.text[self.pos + 1 : self.pos + 2]
                if esc not in _UNESCAPES:
                    self.fail("bad string escape")
                out.append(_UNESCAPES[esc])
                self.pos += 2
                continue
            out.append(ch)
            self.pos += 1

    def index_token(self) -> Index:
        coords = [self.int_token()]
        while self.peek() == ",":
            self.pos += 1
            coords.append(self.int_token())
        return tuple(coords)

    def value(self) -> Value:
        if self.text.startswith("int:", self.pos):
            self.pos += 4
            return IntV(self.int_token())
        if self.text.startswith("float:", self.pos):
            self.pos += 6
            return FloatV(self.float_token())
        if self.text.startswith("str:", self.pos):
            self.pos += 4
            return StrV(self.string_token())
        if self.text.startswith("undef", self.pos):
            self.pos += 5
            return UNDEF
        if self.text.startswith("tuple(", self.pos):
            self.pos += 6
            items = [self.value()]
            while self.peek() == ",":
                self.pos += 1
                items.append(self.value())
            self.take(")")
            return TupleV(tuple(items))
        if self.text.startswith("array{", self.pos):
            self.pos += 6
            self.take("arity=")
            arity = self.int_token()
            pairs = []
            while self.peek() == ";":
                self.pos += 1
                self.skip_spaces()
                index = self.index_token()
                self.skip_spaces()
                self.take("->")
                self.skip_spaces()
                pairs.append((index, self.value()))
            self.take("}")
            try:
                return ArrayV(Array(arity, pairs))
            except (ArityMismatch, ValueError) as exc:
                raise FormatError(str(exc), line=self.line) from exc
        self.fail("expected a value")


def parse_value(text: str, line: Optional[int] = None) -> Value:
    """Parse one complete value term (the part after ``->``)."""
    cur = _Cursor(text.strip(), line)
    value = cur.value()
    cur.skip_spaces()
    if not cur.eof():
        cur.fail("trailing characters after the value")
    return value


def dumps(array: Array, labels: Optional[DimensionLabels] = None) -> str:
    """Serialize to the canonical exchange text."""
    out = io.StringIO()
    out.write(f"{MAGIC} arity={array.arity} count={len(array)}\n")
    if labels is not None:
        for dim in labels.dims():
            pairs = sorted(labels.labels_for(dim).items(), key=lambda kv: kv[1])
            if not pairs:
                continue
            body = " ".join(f"{coord}={name}" for name, coord in pairs)
            out.write(f"label dim={dim} {body}\n")
    for index, value in array.items():
        out.write(f"{_format_index(index)} -> {format_value(value)}\n")
    return out.getvalue()


def loads(text: str) -> Tuple[Array, Optional[DimensionLabels]]:
    """Parse exchange text back into an array (and labels if present)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty file", line=1)
    header = lines[0]
    parts = header.split(" ")
    if len(parts) != 4 or " ".join(parts[:2]) != MAGIC:
        raise FormatError(f"bad header {header!r}", line=1)
    arity = _header_int(parts[2], "arity", 1)
    count = _header_int(parts[3], "count", 1)
    if arity < 1:
        raise FormatError(f"arity must be positive, got {arity}", line=1)
    if count < 0:
        raise FormatError(f"count must be non-negative, got {count}", line=1)

    label_dims: dict = {}
    i = 1
    while i < len(lines) and lines[i].startswith("label "):
        dim, mapping = _parse_label_line(lines[i], i + 1)
        if dim in label_dims:
            raise FormatError(f"duplicate label line for dim {dim}", line=i + 1)
        label_dims[dim] = mapping
        i += 1

    pairs = []
    for lineno in range(i, len(lines)):
        line = lines[lineno]
        display = lineno + 1
        if line.strip() == "":
            raise FormatError("blank line in body", line=display)
        head, sep, tail = line.partition(" -> ")
        if not sep:
            raise FormatError("body line is missing ' -> '", line=display)
        cur = _Cursor(head.strip(), display)
        index = cur.index_token()
        cur.skip_spaces()
        if not cur.eof():
            cur.fail("trailing characters after the index")
        if len(index) != arity:
            raise ArityMismatch(
                f"line {display}: index {index!r} has {len(index)} coordinates, "
                f"file declares arity {arity}"
            )
        pairs.append((index, parse_value(tail, display)))

    if len(pairs) != count:
        raise FormatError(
            f"header declares count={count} but body has {len(pairs)} lines",
            line=1,
        )
    array = Array(arity, pairs)
    if len(array) != count:
        # identical duplicate lines collapse; treat that as a malformed file
        raise FormatError(
            f"body repeats an index; only {len(array)} distinct associations",
            line=1,
        )
    labels = None
    if label_dims:
        for dim in label_dims:
            if not 0 <= dim < arity:
                raise FormatError(f"label dim {dim} outside arity {arity}", line=1)
        labels = DimensionLabels(label_dims)
    return array, labels


def _header_int(part: str, key: str, lineno: int) -> int:
    prefix = key + "="
    if not part.startswith(prefix):
        raise FormatError(f"expected {prefix}<n> in header, got {part!r}", line=lineno)
    try:
        return int(part[len(prefix):])
    except ValueError:
        raise FormatError(f"bad {key} in header: {part!r}", line=lineno) from None


def _parse_label_line(line: str, lineno: int) -> tuple:
    fields = line.split(" ")
    if len(fields) < 3 or not fields[1].startswith("dim="):
        raise FormatError("bad label line", line=lineno)
    try:
        dim = int(fields[1][4:])
    except ValueError:
        raise FormatError("bad label dimension", line=lineno) from None
    mapping = {}
    for field in fields[2:]:
        coord_text, sep, name = field.partition("=")
        if not sep or not name:
            raise FormatError(f"bad label entry {field!r}", line=lineno)
        try:
            coord = int(coord_text)
        except ValueError:
            raise FormatError(f"bad label coordinate in {field!r}", line=lineno) from None
        if name in mapping or coord in mapping.values():
            raise FormatError(f"duplicate label entry {field!r}", line=lineno)
        mapping[name] = coord
    return dim, mapping


def save(path, array: Array, labels: Optional[DimensionLabels] = None) -> None:
    """Write the canonical exchange text; saving twice is byte-identical."""
    text = dumps(array, labels)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load(path) -> Tuple[Array, Optional[DimensionLabels]]:
    if not os.path.exists(path):
        raise FormatError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return loads(fh.read())
