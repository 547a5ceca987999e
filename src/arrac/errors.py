"""Exception hierarchy for the engine, and the library's error contract.

The operators (``arrac.algebra``, ``holds``, ``record_steps``, the
partitions, ``reassemble``, ``push_select``), the readers (``arrfile.loads``
and ``load``, ``manifest.load_placement``, ``relbridge.read_delimited``) and
the ``arrac.qlang`` functions raise only :class:`ArracError`, so callers can
tell engine failures from Python bugs: for any text, arrays, predicates and
steps, any int as a dimension, position or constant, and anything as
``indexes``, ``on`` or ``slices``.  The operator fuzz in
``tests/test_mutation.py`` allows ArracError only and meets ArityMismatch,
PredicateArity, BadStep, NotInjective, NotInvertible, ConsistencyViolation,
NotDisjoint, NotExhaustive, BadSlices and NotPushable.  The constructors of
records and values, ``DimensionLabels``, ``Column``, ``TableSchema``,
``Catalog`` and ``Placement``, and the helpers ``_shard_ids``,
``manifest.build`` and ``format_value`` may raise TypeError or ValueError for
a malformed Python argument; an argument of the wrong type altogether fails
as anywhere in Python.  Errors that name a witnessing index or location
expose it as an attribute in addition to the message.
"""

from __future__ import annotations


class ArracError(Exception):
    """Base class for all engine errors.

    ``span`` is the (line, column) of the query text at fault: where a
    ParseError arose, or the node whose evaluation raised the error, as the
    query evaluator fills it in.  It is ``None`` for direct library calls.
    """

    span = None


class _WitnessError(ArracError):
    """An error that names the index witnessing it as ``index``."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ArityMismatch(ArracError):
    """An index has the wrong number of coordinates for its array."""


class ConsistencyViolation(_WitnessError):
    """Two associations share an index but disagree on the value."""


class PredicateArity(ArracError):
    """A predicate or join condition names a dimension the array lacks, or a
    vertical partition is given no predicate."""


class BadStep(ArracError):
    """An index-transformation step is malformed for the current arity."""


class NotInjective(ArracError):
    """An index transformation collapsed two distinct support indices."""

    def __init__(self, message: str, collided=None):
        super().__init__(message)
        self.collided = collided


class NotInvertible(ArracError):
    """A transformation cannot be inverted: recorded coordinate data missing."""


class NotDisjoint(_WitnessError):
    """A support index matched more than one partition predicate."""


class NotExhaustive(_WitnessError):
    """A support index matched none of the partition predicates."""


class NotTupleValued(ArracError):
    """Horizontal partitioning needs uniform tuple values."""


class BadSlices(ArracError):
    """Slice sets overlap, leave gaps, or are empty."""


class NotPushable(ArracError):
    """A selection cannot be pushed through this placement."""


class SchemaMismatch(ArracError):
    """A table row does not fit the declared schema."""


class DuplicateKey(ArracError):
    """Two table rows share a key value."""


class MissingCell(ArracError):
    """A decoded table row lacks a cell for some column."""

    def __init__(self, message: str, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class UnknownLabel(ArracError):
    """A dimension label is not present in the label map."""


class FormatError(ArracError):
    """An exchange-format file does not parse.

    ``line`` is the 1-based line at fault and ``path`` the file, when known;
    :func:`arrac.arrfile.load` fills in ``path``.
    """

    def __init__(self, message: str, line=None, path=None):
        super().__init__(message)
        self.line = line
        self.path = path


class ParseError(ArracError):
    """Query text does not match the grammar."""

    def __init__(self, message: str, line: int, column: int, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.span = (line, column)
        self.expected = frozenset(expected)


class UnboundName(ArracError):
    """An expression references a name missing from the catalog."""


class ArityError(ArracError):
    """Static arity checking failed for an expression node."""
