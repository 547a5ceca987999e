"""Core data model: sparse n-dimensional arrays as finite partial functions.

An :class:`Array` maps integer index tuples of a fixed arity to tagged
values.  The representation is a plain association set, which keeps the
model neutral about storage layout: anything observationally equivalent
through ``support``/``lookup`` would do.

Two rules shape everything else in the engine:

* the *functional* invariant: no two associations may share an index with
  different values.  It is enforced at construction time, so every Array in
  circulation satisfies it.
* ``Undef`` is a storable value, distinct from absence.  ``A.get(i)``
  returning :data:`UNDEF` means "present but undefined"; a missing index is
  reported as ``None`` (or ``KeyError`` through ``A[i]``).

Arrays and values are immutable and hashable, so they are safe to share
across threads and to nest inside other values.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

from .errors import ArityMismatch, ConsistencyViolation

Index = Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class IntV:
    """Integer value (arbitrary precision)."""

    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value))

    def __repr__(self):
        return f"IntV({self.value})"


class FloatV:
    """64-bit float value.

    Equality is bitwise (``-0.0 != 0.0``) so that structural value equality
    stays total and decidable.  NaN is rejected outright: it has no usable
    equality and would make the functional invariant undecidable.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        value = float(value)
        if math.isnan(value):
            raise ValueError("NaN cannot be stored in an array")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FloatV is immutable; cannot set {name!r}")

    def _bits(self) -> bytes:
        return struct.pack("<d", self.value)

    def __eq__(self, other):
        if not isinstance(other, FloatV):
            return NotImplemented
        return self._bits() == other._bits()

    def __hash__(self):
        return hash(self._bits())

    def __repr__(self):
        return f"FloatV({self.value!r})"


@dataclass(frozen=True, slots=True)
class StrV:
    """String value."""

    value: str

    def __repr__(self):
        return f"StrV({self.value!r})"


class Undef:
    """The stored "undefined" marker; a singleton, available as UNDEF."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"


UNDEF = Undef()


@dataclass(frozen=True, slots=True)
class TupleV:
    """Composite value: a tuple of one or more values."""

    items: Tuple["Value", ...]

    def __post_init__(self):
        items = tuple(as_value(v) for v in self.items)
        if not items:
            raise ValueError("TupleV needs at least one item")
        object.__setattr__(self, "items", items)

    @classmethod
    def _of(cls, items: Tuple["Value", ...]) -> "TupleV":
        """Wrap a non-empty tuple of Values as is: no coercion, no checks."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "items", items)
        return obj

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        return f"TupleV({self.items!r})"


@dataclass(frozen=True, slots=True)
class ArrayV:
    """A nested array stored as a value."""

    array: "Array"

    def __post_init__(self):
        if not isinstance(self.array, Array):
            raise TypeError("ArrayV wraps an Array")

    def __repr__(self):
        return f"ArrayV({self.array!r})"


Value = Union[IntV, FloatV, StrV, Undef, TupleV, ArrayV]


def as_value(obj) -> Value:
    """Coerce a Python object to a Value.

    ints, floats, strings, ``None``, tuples and Arrays map to their tagged
    counterparts; Value instances pass through unchanged.
    """
    if isinstance(obj, (IntV, FloatV, StrV, Undef, TupleV, ArrayV)):
        return obj
    if obj is None:
        return UNDEF
    if isinstance(obj, bool):
        return IntV(int(obj))
    if isinstance(obj, int):
        return IntV(obj)
    if isinstance(obj, float):
        return FloatV(obj)
    if isinstance(obj, str):
        return StrV(obj)
    if isinstance(obj, tuple):
        return TupleV(obj)
    if isinstance(obj, Array):
        return ArrayV(obj)
    raise TypeError(f"cannot represent {type(obj).__name__} as an array value")


def to_python(value: Value):
    """Inverse of :func:`as_value`: unwrap a Value to plain Python.

    UNDEF becomes ``None``, tuples become tuples, nested arrays come back as
    Array instances.
    """
    if isinstance(value, (IntV, FloatV, StrV)):
        return value.value
    if isinstance(value, Undef):
        return None
    if isinstance(value, TupleV):
        return tuple(to_python(v) for v in value.items)
    if isinstance(value, ArrayV):
        return value.array
    raise TypeError(f"not a Value: {value!r}")


def _check_arity(arity) -> int:
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise ValueError(f"arity must be a positive integer, got {arity!r}")
    return arity


def _check_index(index, arity: int) -> Index:
    if not isinstance(index, tuple):
        raise ArityMismatch(f"index must be a tuple of ints, got {index!r}")
    if len(index) != arity:
        raise ArityMismatch(
            f"index {index!r} has {len(index)} coordinates, expected {arity}"
        )
    for c in index:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ArityMismatch(f"index {index!r} has a non-integer coordinate")
    return index


class Array:
    """A finite partial function from integer index tuples to values.

    ``Array(arity, pairs)`` validates every pair: indices must be tuples of
    ints with ``len == arity``, and no index may appear twice with different
    values (identical duplicates are merged).  Values are coerced with
    :func:`as_value`, so ``Array(1, [((0,), "a")])`` works.  Engine results
    are trusted instead: operators wrap a dict they built from checked arrays
    with :meth:`Array._of`, which neither copies nor checks.
    """

    __slots__ = ("_arity", "_assoc", "_hash")

    def __init__(self, arity: int, pairs: Iterable[tuple] = ()):
        _check_arity(arity)
        assoc: dict = {}
        for index, value in pairs:
            index = _check_index(index, arity)
            value = as_value(value)
            if (old := assoc.setdefault(index, value)) is not value and old != value:
                raise ConsistencyViolation(
                    f"index {index!r} bound to two different values", index=index
                )
        self._arity = arity
        self._assoc = assoc
        self._hash = None

    @classmethod
    def _of(cls, arity: int, assoc: dict) -> "Array":
        """Wrap an index->value dict that satisfies the invariant, as is."""
        obj = object.__new__(cls)
        obj._arity, obj._assoc, obj._hash = arity, assoc, None
        return obj

    @property
    def arity(self) -> int:
        return self._arity

    def support(self) -> frozenset:
        """The set of indices at which the array is defined."""
        return frozenset(self._assoc)

    def items(self) -> Iterator[tuple]:
        """Associations in lexicographic index order (the canonical order)."""
        return iter(sorted(self._assoc.items()))

    def get(self, index: Index, default=None) -> Optional[Value]:
        """Value at ``index``, or ``default`` when outside the support.

        A stored UNDEF is returned as UNDEF: present but undefined is not
        the same thing as absent.
        """
        _check_index(index, self._arity)
        return self._assoc.get(index, default)

    def __getitem__(self, index: Index) -> Value:
        _check_index(index, self._arity)
        try:
            return self._assoc[index]
        except KeyError:
            raise KeyError(f"index {index!r} not in support") from None

    def __contains__(self, index) -> bool:
        return isinstance(index, tuple) and index in self._assoc

    def __len__(self) -> int:
        return len(self._assoc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return self._arity == other._arity and self._assoc == other._assoc

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._arity, frozenset(self._assoc.items())))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{i!r}: {v!r}" for i, v in self.items())
        return f"Array({self._arity}, {{{body}}})"
