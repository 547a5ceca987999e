"""The textual exchange format for arrays.

Layout (UTF-8, LF line endings)::

    arrac v1 arity=<n> count=<k>
    label dim=<d> <coord>=<name> <coord>=<name> ...      (optional, one per dim)
    <i1>,<i2>,...,<in> -> <value>                        (k body lines)

Values are tagged so every kind round-trips unambiguously::

    int:<n>  float:<decimal>  str:"<escaped>"  undef
    tuple(<value>,<value>,...)
    array{arity=<m>; <i..> -> <value>; ...}

Indices, ``int:`` values and the header and label numbers are ASCII digits
``0-9`` with an optional leading ``-``.  Strings escape the backslash, the
double quote, LF, TAB and CR with a backslash, stay on one line, and share
their literal syntax with the query language.

Saving is canonical: body lines in lexicographic index order, label lines
sorted by dimension then coordinate, floats in shortest round-trip decimal.
Saving the same array twice therefore yields byte-identical files.
"""

from __future__ import annotations

import io
import os
import re
import sys
import threading
from typing import Mapping, NoReturn, Optional, Tuple

from .core import Array, ArrayV, FloatV, Index, IntV, StrV, TupleV, UNDEF, Undef, Value, show
from .errors import ArityMismatch, ConsistencyViolation, FormatError, UnknownLabel

MAGIC = "arrac v1"

# How deep a value may nest tuple( and array{ forms, and how deep query text
# may nest operators, predicate groups and literals: deep enough for any
# real query, shallow enough that parsing, checking, planning, evaluating
# and printing a tree at the limit stay inside Python's recursion limit.
MAX_NESTING = 100

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {esc[1]: ch for ch, esc in _ESCAPES.items()}

# The string literal of both the exchange format and the query language: a
# double quote, then characters other than a quote, a backslash or a line
# feed, or escapes from _ESCAPES, then a closing quote.
_STRING_HEAD = r'"(?:[^"\\\n]|\\[' + re.escape("".join(_UNESCAPES)) + "])*"
_STRING = _STRING_HEAD + '"'
_STRING_HEAD_RE = re.compile(_STRING_HEAD)
_ESCAPE_RE = re.compile(r"\\(.)")

# a label, of a label line or a table column: no whitespace and no "="
_LABEL_RE = re.compile(r"[^\s=]+")
_INT = r"-?[0-9]+"
_INT_RE = re.compile(_INT)
_INDEX = _INT + "(?:," + _INT + ")*"
_INDEX_RE = re.compile(_INDEX)
_ENTRY_RE = re.compile(r"; *(" + _INDEX + ") *-> *")
# One alternative per value form, named by its group.  A float token takes
# letters (for inf) and a sign only after an exponent marker; float() rejects
# what is left over.
_VALUE_RE = re.compile(
    r"int:(?P<int>-?[0-9]+)"
    r"|float:(?P<float>-?(?:[0-9A-Za-z.]|(?<=[eE])[+-])*)"
    r"|str:(?P<str>" + _STRING + ")"
    r"|(?P<undef>undef)"
    r"|(?P<tuple>tuple)\("
    r"|array\{arity=(?P<array>-?[0-9]+)"
)


def check_label(label: str) -> None:
    """A ValueError unless ``label`` is a string that matches ``_LABEL_RE``."""
    if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
        raise ValueError(f"label {label!r} must be nonempty without spaces or '='")


class DimensionLabels:
    """Bidirectional label maps, one per labelled dimension.

    Within a dimension labels and coordinates pair up bijectively; unlabeled
    dimensions simply have no entry.  Dimensions are non-negative ints and
    coordinates ints, bools neither, as a label line reads them.
    """

    __slots__ = ("_by_dim",)

    def __init__(self, per_dim: Mapping[int, Mapping[str, int]]):
        by_dim = {}
        for dim, mapping in per_dim.items():
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
                raise ValueError(f"label dimension must be a non-negative integer, got {show(dim)}")
            forward = dict(mapping)
            coords = list(forward.values())
            for coord in coords:
                if not isinstance(coord, int) or isinstance(coord, bool):
                    raise ValueError(
                        f"dimension {dim}: label coordinate {show(coord)} is not an integer"
                    )
            if len(set(coords)) != len(coords):
                raise ValueError(f"dimension {dim}: two labels share a coordinate")
            for label in forward:
                check_label(label)
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


def _quote(s: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in s) + '"'


def _unquote(literal: str) -> str:
    """The text a literal that matches ``_STRING`` stands for."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES[m[1]], literal[1:-1])


def _string_fault(text: str, pos: int) -> Tuple[str, int]:
    """Why no string literal starts at the quote ``text[pos]``.

    Returns the message and the offset to blame: the first bad escape, or
    the opening quote if the line or the text ends first.
    """
    end = _STRING_HEAD_RE.match(text, pos).end()
    if text.startswith("\\", end):
        return "bad escape in string literal", end
    return "unterminated string literal", pos


def format_value(value: Value, depth: int = 0) -> str:
    """The text of ``value``, inside ``depth`` enclosing tuple( and array{
    forms; a FormatError if it nests deeper than ``loads`` reads back."""
    if isinstance(value, IntV):
        return f"int:{value.value}"
    if isinstance(value, FloatV):
        # repr gives the shortest decimal that round-trips a 64-bit float
        return f"float:{value.value!r}"
    if isinstance(value, StrV):
        return f"str:{_quote(value.value)}"
    if isinstance(value, Undef):
        return "undef"
    if depth == MAX_NESTING:
        raise FormatError(f"value nested deeper than {MAX_NESTING} levels")
    if isinstance(value, TupleV):
        return "tuple(" + ",".join(format_value(v, depth + 1) for v in value.items) + ")"
    if isinstance(value, ArrayV):
        inner = value.array
        parts = [f"array{{arity={inner.arity}"]
        for index, v in inner.items():
            parts.append(f"; {_format_index(index)} -> {format_value(v, depth + 1)}")
        parts.append("}")
        return "".join(parts)
    raise TypeError(f"not a value: {value!r}")


def _format_index(index: Index) -> str:
    return ",".join(str(c) for c in index)


def _fail(message: str, pos: int, line: Optional[int]) -> NoReturn:
    raise FormatError(f"{message} at column {pos + 1}", line=line)


def too_many_digits() -> str:
    """What an integer past int()'s digit limit is called, wherever it is."""
    return f"integer has more than {sys.get_int_max_str_digits()} digits"


def _ints(text: str, pos: Optional[int], line: Optional[int]) -> Index:
    """The ints of comma-separated ASCII digit runs: an index, or one number.
    The only ValueError int() raises on them is more digits than its limit,
    made a FormatError here, at column ``pos + 1`` if given."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        message = too_many_digits()
        if pos is None:
            raise FormatError(message, line=line) from None
        _fail(message, pos, line)


def _value(text: str, pos: int, line: Optional[int], depth: int = 0) -> Tuple[Value, int]:
    """Parse the value at ``text[pos]``, inside ``depth`` enclosing tuple( and
    array{ forms; return it and the offset after it."""
    m = _VALUE_RE.match(text, pos)
    if m is None:
        if text.startswith('str:"', pos):
            message, at = _string_fault(text, pos + 4)
            _fail(message, at, line)
        _fail("expected a value", pos, line)
    form, end = m.lastgroup, m.end()
    if form == "int":
        return IntV(_ints(m[form], pos + 4, line)[0]), end
    if form == "float":
        try:
            x = float(m[form])
        except ValueError:
            _fail("expected a float", pos + 6, line)
        if x != x:
            _fail("NaN is not a storable value", pos + 6, line)
        return FloatV(x), end
    if form == "str":
        return StrV(_unquote(m[form])), end
    if form == "undef":
        return UNDEF, end
    if depth == MAX_NESTING:
        _fail(f"value nested deeper than {MAX_NESTING} levels", pos, line)
    depth += 1
    if form == "tuple":
        item, end = _value(text, end, line, depth)
        items = [item]
        while text.startswith(",", end):
            item, end = _value(text, end + 1, line, depth)
            items.append(item)
        if not text.startswith(")", end):
            _fail("expected ')'", end, line)
        return TupleV._of(tuple(items)), end + 1
    pairs = []
    while entry := _ENTRY_RE.match(text, end):
        value, end = _value(text, entry.end(), line, depth)
        pairs.append((_ints(entry[1], entry.start(1), line), value))
    if not text.startswith("}", end):
        _fail("expected '}'", end, line)
    try:
        array = Array(_ints(m["array"], pos + 12, line)[0], pairs)
    except (ArityMismatch, ConsistencyViolation, ValueError) as exc:
        raise FormatError(str(exc), line=line) from exc
    if len(array) != len(pairs):
        _fail("array value repeats an index", pos, line)
    return ArrayV(array), end + 1


def parse_value(text: str, line: Optional[int] = None) -> Value:
    """Parse one complete value term (the part after ``->``)."""
    text = text.strip()
    value, end = _value(text, 0, line)
    if end != len(text):
        _fail("trailing characters after the value", end, line)
    return value


def dumps(array: Array, labels: Optional[DimensionLabels] = None) -> str:
    """Serialize to the canonical exchange text; a FormatError for what
    :func:`loads` would refuse to read back: a label dim past the array's
    arity, or an int past int()'s digit limit."""
    out = io.StringIO()
    out.write(f"{MAGIC} arity={array.arity} count={len(array)}\n")
    if labels is not None:
        for dim in labels.dims():
            pairs = sorted(labels.labels_for(dim).items(), key=lambda kv: kv[1])
            if not pairs:
                continue
            if dim >= array.arity:
                raise FormatError(f"label dim {show(dim)} outside arity {array.arity}")
            try:
                body = " ".join(f"{coord}={name}" for name, coord in pairs)
            except ValueError:
                raise FormatError(f"{too_many_digits()} in the label line of dim {dim}") from None
            out.write(f"label dim={dim} {body}\n")
    for n, (index, value) in enumerate(array.items(), 1):
        try:
            out.write(f"{_format_index(index)} -> {format_value(value)}\n")
        except FormatError as exc:
            raise FormatError(f"{exc} at index {show(index)}") from None
        except ValueError:
            # str() refuses an int past its digit limit, and so would
            # repr(index): name the line's place in the body instead
            raise FormatError(f"{too_many_digits()} in body line {n}") from None
    return out.getvalue()


def loads(text: str) -> Tuple[Array, Optional[DimensionLabels]]:
    """Parse exchange text back into an array (and labels if present).

    Every fault in the text is a FormatError naming its line, a body index
    of the wrong width and an index repeated with another value included.
    """
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

    assoc: dict = {}
    conflict = None
    for lineno in range(i, len(lines)):
        line = lines[lineno]
        display = lineno + 1
        if line.strip() == "":
            raise FormatError("blank line in body", line=display)
        head, sep, tail = line.partition(" -> ")
        if not sep:
            raise FormatError("body line is missing ' -> '", line=display)
        head = head.strip()
        if _INDEX_RE.fullmatch(head) is None:
            raise FormatError(f"bad index {head!r}", line=display)
        index = _ints(head, line.index(head), display)
        if len(index) != arity:
            raise FormatError(
                f"index {index!r} has {len(index)} coordinates, file declares arity {arity}",
                line=display,
            )
        value = parse_value(tail, display)
        # a conflicting repeat is reported after the count check, at its line
        old = assoc.setdefault(index, value)
        if old is not value and old != value and conflict is None:
            conflict = FormatError(
                f"index {index!r} is bound to two different values", line=display
            )

    if len(lines) - i != count:
        raise FormatError(
            f"header declares count={count} but body has {len(lines) - i} lines",
            line=1,
        )
    if conflict is not None:
        raise conflict
    if len(assoc) != count:
        # identical duplicate lines collapse; treat that as a malformed file
        raise FormatError(
            f"body repeats an index; only {len(assoc)} distinct associations",
            line=1,
        )
    array = Array._of(arity, assoc)
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
    return _decimal(part[len(prefix):], f"bad {key} in header: {part!r}", lineno)


def _decimal(text: str, fault: str, lineno: int) -> int:
    """``text`` as an int when it is ASCII ``-?[0-9]+``, as indices are."""
    if _INT_RE.fullmatch(text) is None:
        raise FormatError(fault, line=lineno)
    return _ints(text, None, lineno)[0]


def _parse_label_line(line: str, lineno: int) -> tuple:
    fields = line.split(" ")
    if len(fields) < 3 or not fields[1].startswith("dim="):
        raise FormatError("bad label line", line=lineno)
    dim = _decimal(fields[1][4:], "bad label dimension", lineno)
    mapping = {}
    coords = set()
    for field in fields[2:]:
        coord_text, sep, name = field.partition("=")
        if not sep or not _LABEL_RE.fullmatch(name):
            raise FormatError(f"bad label entry {field!r}", line=lineno)
        coord = _decimal(coord_text, f"bad label coordinate in {field!r}", lineno)
        if name in mapping or coord in coords:
            raise FormatError(f"duplicate label entry {field!r}", line=lineno)
        mapping[name] = coord
        coords.add(coord)
    return dim, mapping


def save(path, array: Array, labels: Optional[DimensionLabels] = None) -> None:
    """Write the canonical exchange text; saving twice is byte-identical."""
    write_atomic(path, dumps(array, labels))


def write_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, whole or not at all.

    The text goes to a temporary file in the target's directory, named after
    the target, the process and the thread, which then replaces the target
    with ``os.replace``.  A write that fails midway leaves the old file as it
    was and removes the temporary file.  No ``fsync``: this guards against a
    failed or killed writer, not against power loss.
    """
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decode(data: bytes, path) -> str:
    """``data``, read from ``path``, as UTF-8 text; other bytes are a
    FormatError naming ``path``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text: {exc.reason} at byte {exc.start}"
        raise FormatError(message, path=os.fspath(path)) from None


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings as they are in it."""
    with open(path, "rb") as fh:
        return _decode(fh.read(), path)


def load(path, data: Optional[bytes] = None) -> Tuple[Array, Optional[DimensionLabels]]:
    """The array and labels of the exchange file at ``path``, parsed from
    ``data`` when the caller has read its bytes already."""
    if data is None:
        if not os.path.exists(path):
            raise FormatError(f"no such file: {path}")
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return loads(_decode(data, path))
    except FormatError as exc:
        exc.path = os.fspath(path)
        raise
