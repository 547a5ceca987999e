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
import sys
from typing import Iterable, Iterator, Optional, Tuple, Union

from .errors import ArityMismatch, ConsistencyViolation

Index = Tuple[int, ...]
_new = object.__new__


class Record:
    """Base of the engine's immutable records.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    the fields that decide equality and hashing in ``_fields`` (all of them
    unless it says otherwise).  The fields left out of ``_fields`` trail the
    others, default to None and show only in the repr, as a source span
    does.  ``__init__`` takes every field by position or by keyword, and is
    quickest given every field by position; a class that coerces or checks
    its arguments writes its own and sets its fields through this one or
    through ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls.__match_args__ = cls.__slots__
        # each field's slot setter, which bypasses __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, from arguments given by keyword or leaving
        out trailing uncompared fields."""
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        return [values.get(name) for name in names]

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class IntV(Record):
    """Integer value (arbitrary precision)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", int(value))

    def __eq__(self, other):
        if other.__class__ is not IntV:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self):
        return f"IntV({self.value})"


class FloatV(Record):
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


class StrV(Record):
    """String value."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is not StrV:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value,))

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


class TupleV(Record):
    """Composite value: a tuple of one or more values."""

    __slots__ = ("items",)

    def __init__(self, items: Tuple["Value", ...]):
        items = tuple(as_value(v) for v in items)
        if not items:
            raise ValueError("TupleV needs at least one item")
        object.__setattr__(self, "items", items)

    @staticmethod
    def _of(items: Tuple["Value", ...]) -> "TupleV":
        """Wrap a non-empty tuple of Values as is: no coercion, no checks.
        Hot loops bind it to a local once."""
        obj = _new(TupleV)
        _set_items(obj, items)
        return obj

    def __len__(self):
        return len(self.items)

    def __eq__(self, other):
        if other.__class__ is not TupleV:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self):
        return f"TupleV({self.items!r})"


_set_items = TupleV._setters[0]


class ArrayV(Record):
    """A nested array stored as a value."""

    __slots__ = ("array",)

    def __init__(self, array: "Array"):
        if not isinstance(array, Array):
            raise TypeError("ArrayV wraps an Array")
        object.__setattr__(self, "array", array)

    def __eq__(self, other):
        if other.__class__ is not ArrayV:
            return NotImplemented
        return self.array == other.array

    def __hash__(self):
        return hash((self.array,))

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


def show(item) -> str:
    """``repr`` of an index or of one coordinate, for a message.  ``repr``
    refuses an int of more digits than ``sys.get_int_max_str_digits()``: such
    an int shows by its sign and last six digits, anything else by its type."""
    try:
        return repr(item)
    except ValueError:
        pass
    if isinstance(item, tuple):
        body = ", ".join(map(show, item))
        return f"({body},)" if len(item) == 1 else f"({body})"
    if not isinstance(item, int):
        return f"<{type(item).__name__}>"
    sign = "-" if item < 0 else ""
    return f"{sign}<more than {sys.get_int_max_str_digits()} digits ...{abs(item) % 10**6:06}>"


def _check_index(index, arity: int) -> Index:
    if not isinstance(index, tuple):
        raise ArityMismatch(f"index must be a tuple of ints, got {show(index)}")
    if len(index) != arity:
        raise ArityMismatch(
            f"index {show(index)} has {len(index)} coordinates, expected {arity}"
        )
    for c in index:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ArityMismatch(f"index {show(index)} has a non-integer coordinate")
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
                    f"index {show(index)} bound to two different values", index=index
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
            raise KeyError(f"index {show(index)} not in support") from None

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
