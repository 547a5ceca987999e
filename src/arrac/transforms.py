"""Invertible index transformations.

A transformation is a sequence of primitive steps, each a bijection on the
array's support:

* ``Permute(perm)``      reorder coordinates; ``perm[k]`` is the source
                         position for target position ``k`` (numpy axes
                         convention).
* ``Translate(dim, k)``  shift one coordinate by a constant.
* ``InsertDim(pos, c)``  add a dimension holding the constant ``c``.
* ``RemoveDim(pos)``     drop a dimension; valid only when the surviving
                         coordinates stay pairwise distinct on the support.
* ``Compact(dim)``       remap the distinct coordinates of one dimension,
                         in sorted order, onto 0..k-1.

Two more step kinds exist so that inverses are expressible: ``RemapDim``
replays a recorded per-coordinate table (the inverse of Compact) and
``InsertFromTable`` re-inserts a dropped dimension from a recorded
index-to-coordinate table (the inverse of RemoveDim).

``apply_steps`` is pure and never mutates its inputs.  RemoveDim and Compact
discard information that their inverses need, so inversion is a two-stage
affair: ``record_steps`` replays a spec against a concrete array and returns
the same steps with the coordinate tables filled in; ``invert_steps`` then
builds the reverse spec, failing with ``NotInvertible`` when a table is
missing or a step does not fit the support.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence, Union

from .core import Array, Index, Record, show
from .errors import BadStep, NotInjective, NotInvertible


class Permute(Record):
    __slots__ = ("perm",)

    def __init__(self, perm: Sequence[int]):
        super().__init__(tuple(perm))


class Translate(Record):
    __slots__ = ("dim", "offset")


class InsertDim(Record):
    __slots__ = ("position", "constant")


class RemoveDim(Record):
    # recorded: None, or sorted ((surviving index, removed coordinate), ...)
    # pairs, filled in by record_steps or, for an InsertDim's inverse, by
    # invert_steps; needed to invert.  Excluded from equality: the step
    # itself is the same operation with or without it.
    __slots__ = ("position", "recorded")
    _fields = ("position",)


class Compact(Record):
    # recorded: None, or sorted ((new coordinate, old coordinate), ...) pairs.
    __slots__ = ("dim", "recorded")
    _fields = ("dim",)


class RemapDim(Record):
    """Replace one dimension's coordinates through an explicit table of
    (current, target) pairs."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Iterable[tuple]):
        super().__init__(dim, tuple(sorted(table)))


class InsertFromTable(Record):
    """Insert a dimension whose coordinate is looked up per index, through a
    table of (index before insertion, coordinate) pairs."""

    __slots__ = ("position", "table")

    def __init__(self, position: int, table: Iterable[tuple]):
        super().__init__(position, tuple(sorted(table)))


Step = Union[Permute, Translate, InsertDim, RemoveDim, Compact, RemapDim, InsertFromTable]

TransformSpec = Sequence[Step]

# the steps that act on one existing dimension, as their errors name them
_DIM_STEPS = {Translate: "translate", Compact: "compact", RemapDim: "remap"}
# the constants each step writes into an index
_WRITTEN = {
    Translate: lambda s: (s.offset,),
    InsertDim: lambda s: (s.constant,),
    RemapDim: lambda s: (c for _, c in s.table),
    InsertFromTable: lambda s: (c for _, c in s.table),
}


def _lookup(table: dict, key, fault: str) -> int:
    """``table[key]``, or BadStep with ``fault`` naming the missing key."""
    try:
        return table[key]
    except KeyError:
        raise BadStep(fault.format(show(key))) from None


def _step(step: Step, arity: int, support: Iterable[Index]) -> tuple:
    """Check a step against the incoming arity; return the outgoing arity
    and the step's index map over ``support``.

    Raises BadStep on malformed permutations, out-of-range positions, and
    offsets, constants or table coordinates that are not ints: the results
    are trusted, so a step must not put anything else into an index.
    """
    for c in _WRITTEN.get(type(step), lambda s: ())(step):
        if not isinstance(c, int) or isinstance(c, bool):
            raise BadStep(f"{type(step).__name__} coordinate {c!r} is not an int")
    if isinstance(step, Permute):
        perm = step.perm
        if sorted(perm) != list(range(arity)):
            raise BadStep(f"permutation {show(perm)} is not a permutation of 0..{arity - 1}")
        # a permutation of one dimension is the identity
        return arity, itemgetter(*perm) if arity > 1 else tuple
    if isinstance(step, (InsertDim, InsertFromTable)):
        p = step.position
        if not 0 <= p <= arity:
            raise BadStep(f"insert position {show(p)} out of range for arity {arity}")
        if isinstance(step, InsertDim):
            c = step.constant
            return arity + 1, lambda i: i[:p] + (c,) + i[p:]
        table, fault = dict(step.table), "no recorded coordinate for index {}"
        return arity + 1, lambda i: i[:p] + (_lookup(table, i, fault),) + i[p:]
    if isinstance(step, RemoveDim):
        p = step.position
        if arity == 1:
            raise BadStep("cannot remove the only dimension")
        if not 0 <= p < arity:
            raise BadStep(f"remove position {show(p)} out of range for arity {arity}")
        return arity - 1, lambda i: i[:p] + i[p + 1 :]
    if type(step) not in _DIM_STEPS:
        raise BadStep(f"unknown step {step!r}")
    d = step.dim
    if not 0 <= d < arity:
        raise BadStep(f"{_DIM_STEPS[type(step)]} dimension {show(d)} out of range for arity {arity}")
    if isinstance(step, Translate):
        off = step.offset
        return arity, lambda i: i[:d] + (i[d] + off,) + i[d + 1 :]
    if isinstance(step, Compact):
        ranks = {c: r for r, c in enumerate(sorted({i[d] for i in support}))}
        return arity, lambda i: i[:d] + (ranks[i[d]],) + i[d + 1 :]
    table = dict(step.table)
    fault = "no table entry for coordinate {} on dimension " + str(d)
    return arity, lambda i: i[:d] + (_lookup(table, i[d], fault),) + i[d + 1 :]


def _apply_to_pairs(step: Step, arity: int, pairs: dict) -> tuple:
    """Apply one step to an index->value dict; returns (new_arity, new_pairs).

    The step maps the keys in the dict's order.  Only when that fails (a
    missing table entry, or two indices that collapse) does it walk them one
    by one, which fails too, to name the first key that fails in that order.
    """
    new_arity, f = _step(step, arity, pairs)
    try:
        out = dict(zip(map(f, pairs), pairs.values()))
        if len(out) == len(pairs):
            return new_arity, out
    except BadStep:
        pass
    sources = {}
    for i in pairs:
        j = f(i)
        if j in sources:
            raise NotInjective(
                f"indices {show(sources[j])} and {show(i)} collapse to {show(j)}",
                collided=(sources[j], i),
            )
        sources[j] = i


def _apply_all(arity: int, pairs: dict, steps: TransformSpec) -> Array:
    """The array the steps make of ``pairs``, mapped in their order."""
    for step in steps:
        arity, pairs = _apply_to_pairs(step, arity, pairs)
    return Array._of(arity, pairs)


def apply_steps(array: Array, steps: TransformSpec) -> Array:
    """Apply a transformation; the association count never changes.  Each
    step maps the support in stored order; a spec that fails (a missing table
    entry, or two indices that collapse) runs again in canonical order, so
    its error names the same witness whatever that order is."""
    try:
        return _apply_all(array.arity, array._assoc, steps)
    except (BadStep, NotInjective):
        return _apply_all(array.arity, dict(array.items()), steps)


def record_steps(array: Array, steps: TransformSpec) -> list:
    """Replay ``steps`` on ``array`` and fill in the recorded tables.

    The result applies exactly like ``steps`` but RemoveDim and Compact carry
    the coordinate data their inverses need.  The replay runs as
    ``apply_steps`` does, so a failing spec raises the same error.
    """
    arity, support = array.arity, dict.fromkeys(sorted(array.support()))
    recorded: list = []
    for step in steps:
        arity, after = _apply_to_pairs(step, arity, support)
        moved = zip(support, after)  # each index beside its image
        if isinstance(step, RemoveDim):
            p = step.position
            step = RemoveDim(p, recorded=tuple(sorted((j, i[p]) for i, j in moved)))
        elif isinstance(step, Compact):
            d = step.dim
            step = Compact(d, recorded=tuple(sorted({(j[d], i[d]) for i, j in moved})))
        support = after
        recorded.append(step)
    return recorded


def invert_steps(steps: TransformSpec, support_after: Iterable[Index]) -> list:
    """Build the inverse transformation for steps applied to some array.

    ``support_after`` is the support of the transformed array; each inverse
    step is applied to it in turn, at its own arity, to confirm the recorded
    tables cover it.  An InsertDim's inverse is a RemoveDim recorded with the
    constant it inserted.  Raises NotInvertible when a RemoveDim or Compact
    lacks its recorded table, when an index does not hold an InsertDim's
    constant, or when an inverse step does not fit the support.
    """
    support = dict.fromkeys(support_after)
    arity = len(next(iter(support), ()))
    inverse: list = []
    for step in reversed(list(steps)):
        if isinstance(step, Permute):
            try:  # a repeated or out-of-range entry has no inverse to build
                _step(step, len(step.perm), ())
            except BadStep as exc:
                raise NotInvertible(str(exc)) from exc
            q = [0] * len(step.perm)
            for k, p in enumerate(step.perm):
                q[p] = k
            inv: Step = Permute(tuple(q))
        elif isinstance(step, Translate):
            inv = Translate(step.dim, -step.offset)
        elif isinstance(step, InsertDim):
            p, c = step.position, step.constant
            stray = [i for i in support if i[p : p + 1] != (c,)]
            if stray and 0 <= p < arity:  # else the walk below names the position
                raise NotInvertible(
                    f"index {show(min(stray))} does not hold {show(c)} at position {p}"
                )
            kept = sorted((i[:p] + i[p + 1 :], c) for i in support)
            inv = RemoveDim(p, recorded=tuple(kept))
        elif isinstance(step, InsertFromTable):
            inv = RemoveDim(step.position, recorded=step.table)
        elif isinstance(step, RemoveDim):
            if step.recorded is None:
                raise NotInvertible(
                    "RemoveDim has no recorded coordinates; use record_steps first"
                )
            missing = support.keys() - {i for i, _ in step.recorded}
            if missing:
                raise NotInvertible(
                    f"recorded table does not cover index {show(min(missing))}"
                )
            inv = InsertFromTable(step.position, step.recorded)
        elif isinstance(step, Compact):
            if step.recorded is None:
                raise NotInvertible(
                    "Compact has no recorded coordinates; use record_steps first"
                )
            inv = RemapDim(step.dim, step.recorded)
        elif isinstance(step, RemapDim):
            flipped = tuple((b, a) for a, b in step.table)
            if len({b for b, _ in flipped}) != len(flipped):
                raise NotInvertible("remap table is not injective")
            inv = RemapDim(step.dim, flipped)
        else:
            raise BadStep(f"unknown step {step!r}")
        # walk the support backwards through the inverse just built, so the
        # next (earlier) step is validated against the right index set; an
        # empty support has no arity to check against
        if support:
            try:
                arity, support = _apply_to_pairs(inv, arity, support)
            except NotInjective:
                raise NotInvertible("recorded table collapses two indices") from None
            except BadStep as exc:
                raise NotInvertible(str(exc)) from exc
        inverse.append(inv)
    return inverse
