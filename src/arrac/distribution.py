"""Partitioning arrays into fragments and putting them back together.

Naming note, worth reading twice: *vertical* partitioning here splits the
support (the index set) into disjoint pieces recombined by union, while
*horizontal* partitioning splits each association's value tuple across
fragments that all duplicate the index, recombined by an equi-join on the
index.  This is the reverse of the usual relational row/column convention;
the glossary in the README spells it out.
Reassembly computes the union or join result directly, in one merge.

Fragments live on simulated shards: a placement is data plus labels, there
is no networking here.  Because a placement also knows the scheme that
produced it, reassembly never consults the original array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .core import Array, TupleV, Value, _check_arity
from .errors import (
    ArityMismatch,
    BadSlices,
    NotDisjoint,
    NotExhaustive,
    NotPushable,
    NotTupleValued,
)
from .predicates import (
    And,
    ItemCmp,
    Not,
    Or,
    Predicate,
    ValueCmp,
    check_dims,
    compile_predicate,
    leaves,
    referenced_positions,
)
from . import algebra


@dataclass(frozen=True)
class VerticalSplit:
    """Fragment k holds the associations matching ``predicates[k]``."""

    predicates: Tuple[Predicate, ...]

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))


@dataclass(frozen=True)
class HorizontalSplit:
    """Fragment k holds the value components at positions ``slices[k]``."""

    slices: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "slices", tuple(tuple(sorted(set(s))) for s in self.slices)
        )


PartitionScheme = VerticalSplit | HorizontalSplit


@dataclass(frozen=True)
class Fragment:
    fragment_id: str
    array: Array
    shard_id: str


@dataclass(frozen=True)
class Placement:
    fragments: Tuple[Fragment, ...]
    scheme: PartitionScheme
    origin_arity: int

    def __post_init__(self):
        object.__setattr__(self, "fragments", tuple(self.fragments))
        ids = [f.fragment_id for f in self.fragments]
        if len(set(ids)) != len(ids):
            raise ValueError("fragment ids must be unique")


def _shard_ids(n: int, shard_ids: Optional[Sequence[str]]) -> list:
    if shard_ids is None:
        return [f"shard-{k}" for k in range(n)]
    if len(shard_ids) != n:
        raise ValueError(f"expected {n} shard ids, got {len(shard_ids)}")
    return list(shard_ids)


def partition_vertical(
    array: Array,
    predicates: Sequence[Predicate],
    shard_ids: Optional[Sequence[str]] = None,
) -> Placement:
    """Split the support by a family of predicates, one fragment each.

    The predicates must be pairwise disjoint and jointly exhaustive over the
    concrete support; both are checked extensionally, in the same single pass
    that buckets the associations, and the error names the lowest witnessing
    index.
    """
    predicates = tuple(predicates)
    for pred in predicates:
        check_dims(pred, array.arity)
    tests = [compile_predicate(pred) for pred in predicates]
    buckets = [{} for _ in predicates]
    for index, value in array.items():
        matches = [k for k, test in enumerate(tests) if test(index, value)]
        if len(matches) > 1:
            raise NotDisjoint(
                f"index {index!r} matches predicates {matches[0]} and {matches[1]}",
                index=index,
            )
        if not matches:
            raise NotExhaustive(
                f"index {index!r} matches no partition predicate", index=index
            )
        buckets[matches[0]][index] = value
    shards = _shard_ids(len(predicates), shard_ids)
    fragments = tuple(
        Fragment(f"f{k}", Array._of(array.arity, bucket), shards[k])
        for k, bucket in enumerate(buckets)
    )
    return Placement(fragments, VerticalSplit(predicates), array.arity)


def _tuple_width(array: Array) -> Optional[int]:
    """Uniform TupleV arity of the array's values, or None for empty arrays."""
    width = None
    for index, value in array.items():
        if not isinstance(value, TupleV):
            raise NotTupleValued(f"value at {index!r} is not a tuple")
        if width is None:
            width = len(value.items)
        elif len(value.items) != width:
            raise NotTupleValued(
                f"value at {index!r} has {len(value.items)} components, expected {width}"
            )
    return width


def _check_slices(slices: Sequence, width: Optional[int]) -> tuple:
    slices = tuple(tuple(sorted(set(int(p) for p in s))) for s in slices)
    if not slices:
        raise BadSlices("at least one slice is required")
    seen: dict = {}
    for k, s in enumerate(slices):
        if not s:
            raise BadSlices(f"slice {k} is empty")
        for p in s:
            if p < 0:
                raise BadSlices(f"negative position {p} in slice {k}")
            if p in seen:
                raise BadSlices(f"position {p} appears in slices {seen[p]} and {k}")
            seen[p] = k
    # the lowest uncovered position is at most len(seen): no range of the
    # largest position is built, so a huge one costs nothing
    gap = next(p for p in range(len(seen) + 1) if p not in seen)
    top = width if width is not None else max(seen) + 1
    if gap < top:
        raise BadSlices(f"position {gap} is not covered by any slice")
    if width is not None and max(seen) >= width:
        raise BadSlices(
            f"position {max(seen)} is out of range for {width}-component values"
        )
    return slices


def _slice_value(value: TupleV, positions: Tuple[int, ...]) -> Value:
    # a singleton slice stores the bare component, not a 1-tuple
    if len(positions) == 1:
        return value.items[positions[0]]
    return TupleV._of(tuple(value.items[p] for p in positions))


def partition_horizontal(
    array: Array,
    slices: Sequence,
    shard_ids: Optional[Sequence[str]] = None,
) -> Placement:
    """Split tuple values across fragments that duplicate the index.

    Values must be tuples of uniform width and the slices must partition the
    component positions.  Every fragment has the same support as the input.
    """
    width = _tuple_width(array)
    slices = _check_slices(slices, width)
    shards = _shard_ids(len(slices), shard_ids)
    fragments = []
    for k, positions in enumerate(slices):
        assoc = {i: _slice_value(v, positions) for i, v in array._assoc.items()}
        fragments.append(Fragment(f"f{k}", Array._of(array.arity, assoc), shards[k]))
    return Placement(tuple(fragments), HorizontalSplit(slices), array.arity)


def _reassemble_horizontal(placement: Placement) -> Array:
    slices = _check_slices(placement.scheme.slices, None)
    if len(slices) != len(placement.fragments):
        raise BadSlices(f"{len(slices)} slices for {len(placement.fragments)} fragments")
    # the join keeps only the indices every fragment holds, which is what
    # makes a selection pushed down to one fragment restrict the whole result
    common = frozenset.intersection(*(f.array.support() for f in placement.fragments))
    rows = {index: [None] * sum(map(len, slices)) for index in common}
    for fragment, positions in zip(placement.fragments, slices):
        for index, value in fragment.array.items():
            # the scheme, not the value's shape, decides how to unpack: a
            # singleton slice stored the bare component, even a tuple one
            if len(positions) == 1:
                components = (value,)
            elif isinstance(value, TupleV) and len(value.items) == len(positions):
                components = value.items
            else:
                raise NotTupleValued(
                    f"fragment {fragment.fragment_id!r}: value at {index!r} "
                    f"is not a {len(positions)}-tuple"
                )
            if index in rows:
                for p, component in zip(positions, components):
                    rows[index][p] = component
    return Array._of(
        placement.origin_arity, {i: TupleV._of(tuple(r)) for i, r in rows.items()}
    )


def reassemble(placement: Placement) -> Array:
    """Rebuild the partitioned array from its fragments alone.

    A vertical placement is the union of its fragments, a horizontal one the
    equi-join of its fragments on the index with each value's components
    back in their original positions; each is computed as one direct merge.
    Raises ArityMismatch for a fragment of the wrong arity, BadSlices for
    slices that do not partition the positions one fragment each, and
    ConsistencyViolation (vertical) or NotTupleValued (horizontal, a value
    that does not fit its slice) naming the first offending index.
    """
    for fragment in placement.fragments:
        if fragment.array.arity != placement.origin_arity:
            raise ArityMismatch(
                f"fragment {fragment.fragment_id!r} is {fragment.array.arity}-d, "
                f"the placement is {placement.origin_arity}-d"
            )
    arity = _check_arity(placement.origin_arity)
    if isinstance(placement.scheme, VerticalSplit):
        return algebra.merge(arity, (f.array for f in placement.fragments))
    return _reassemble_horizontal(placement)


def _localize(pred: Predicate, positions: Tuple[int, ...]) -> Predicate:
    """Rewrite value-position leaves for a fragment holding ``positions``."""
    if isinstance(pred, ItemCmp):
        local = positions.index(pred.position)
        if len(positions) == 1:
            return ValueCmp(pred.op, pred.constant)
        return ItemCmp(pred.op, local, pred.constant)
    if isinstance(pred, (And, Or)):
        return type(pred)(tuple(_localize(c, positions) for c in pred.children))
    if isinstance(pred, Not):
        return Not(_localize(pred.child, positions))
    return pred


def push_select(placement: Placement, pred: Predicate) -> Placement:
    """Apply a selection fragment-wise, preserving the reassembly result.

    Any predicate pushes through a vertical placement.  Through a horizontal
    placement a predicate may reference index coordinates (filtered on every
    fragment) and value positions confined to a single slice (filtered on
    that fragment; the join intersects the rest).  Whole-value comparisons
    and predicates spanning slices raise NotPushable.
    """
    check_dims(pred, placement.origin_arity)
    per_fragment = dict.fromkeys(range(len(placement.fragments)), pred)
    if isinstance(placement.scheme, HorizontalSplit):
        slices = placement.scheme.slices
        owner = {p: k for k, s in enumerate(slices) for p in s}
        touched = set()
        for p in referenced_positions(pred):
            if p not in owner:
                raise NotPushable(f"value position {p} is outside every slice")
            touched.add(owner[p])
        if len(touched) > 1:
            raise NotPushable(f"predicate references value positions in slices {sorted(touched)}")
        if any(isinstance(leaf, ValueCmp) for leaf in leaves(pred)):
            raise NotPushable(
                "whole-value comparisons cannot be pushed through a horizontal split"
            )
        if touched:
            target = touched.pop()
            per_fragment = {target: _localize(pred, slices[target])}
    fragments = tuple(
        Fragment(f.fragment_id, algebra.select(f.array, per_fragment[k]), f.shard_id)
        if k in per_fragment else f
        for k, f in enumerate(placement.fragments)
    )
    return Placement(fragments, placement.scheme, placement.origin_arity)
