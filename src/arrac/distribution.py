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

import math
from bisect import bisect_right
from collections import deque
from itertools import repeat
from operator import getitem, itemgetter, setitem
from typing import Optional, Sequence, Tuple

from .core import Array, Record, TupleV, _check_arity, show
from .errors import (
    ArityMismatch,
    BadSlices,
    NotDisjoint,
    NotExhaustive,
    NotPushable,
    NotTupleValued,
    PredicateArity,
)
from .predicates import (
    ItemCmp,
    Predicate,
    TRUE,
    ValueCmp,
    _box_residual,
    check_dims,
    children,
    compile_predicate,
    leaves,
    referenced_positions,
)
from . import algebra


class VerticalSplit(Record):
    """Fragment k holds the associations matching ``predicates[k]``."""

    __slots__ = ("predicates",)

    def __init__(self, predicates: Sequence[Predicate]):
        super().__init__(tuple(predicates))


class HorizontalSplit(Record):
    """Fragment k holds the value components at positions ``slices[k]``."""

    __slots__ = ("slices",)

    def __init__(self, slices: Sequence[Sequence[int]]):
        super().__init__(tuple(tuple(sorted(set(s))) for s in slices))


PartitionScheme = VerticalSplit | HorizontalSplit


class Fragment(Record):
    __slots__ = ("fragment_id", "array", "shard_id")


class Placement(Record):
    __slots__ = ("fragments", "scheme", "origin_arity")

    def __init__(self, fragments: Sequence[Fragment], scheme: PartitionScheme,
                 origin_arity: int):
        fragments = tuple(fragments)
        ids = [f.fragment_id for f in fragments]
        if len(set(ids)) != len(ids):
            raise ValueError("fragment ids must be unique")
        super().__init__(fragments, scheme, origin_arity)


def _shard_ids(n: int, shard_ids: Optional[Sequence[str]]) -> list:
    if shard_ids is None:
        return [f"shard-{k}" for k in range(n)]
    if len(shard_ids) != n:
        raise ValueError(f"expected {n} shard ids, got {len(shard_ids)}")
    return list(shard_ids)


def _segments(boxes: Sequence, dim: int) -> tuple:
    """Cut points on one dimension and, for each segment between them, the
    set of the predicates whose box meets it.

    ``boxes[k]`` is predicate k's box as ``_box_residual`` gives it.  A
    coordinate ``x`` lies in segment ``bisect_right(cuts, x)``; since every
    box's interval starts and ends at a cut, it covers whole segments only.
    """
    live = [(k, *b.get(dim, (-math.inf, math.inf))) for k, b in enumerate(boxes) if b is not None]
    cuts = sorted(
        {lo for _, lo, _ in live if lo != -math.inf}
        | {hi + 1 for _, _, hi in live if hi != math.inf}
    )
    segments = [set() for _ in range(len(cuts) + 1)]
    for k, lo, hi in live:
        for s in range(bisect_right(cuts, lo), bisect_right(cuts, hi) + 1):
            segments[s].add(k)
    return cuts, segments


def partition_vertical(
    array: Array,
    predicates: Sequence[Predicate],
    shard_ids: Optional[Sequence[str]] = None,
) -> Placement:
    """Split the support by a family of predicates, one fragment each.

    The predicates must be pairwise disjoint and jointly exhaustive over the
    concrete support; both are checked extensionally, in the same single pass
    that buckets the associations, and the error names the lowest witnessing
    index and, for an overlap, its first two matching predicates.

    Each predicate has a box, one closed interval per dimension outside
    which it cannot hold, and a residual, the part of it the box cannot
    decide.  The pass cuts every dimension at the boxes' bounds, so each
    association lies in one cell, which each box covers or misses.  A cell
    whose one covering box decides its predicate goes to that fragment
    untested; elsewhere an association is tested only against the residuals
    of the predicates whose box covers its cell.  Dimensions are checked on
    the residuals: a leaf the box decides is in range by construction, and
    every other leaf stays in the residual.
    """
    predicates = tuple(predicates)
    if not predicates:
        raise PredicateArity("vpartition needs at least one predicate")
    arity, assoc = array.arity, array._assoc
    boxes, residuals = zip(*(_box_residual(pred, arity) for pred in predicates))
    for residual in residuals:
        check_dims(residual, arity)
    # None where the box decides the predicate
    tests = [None if r is TRUE else compile_predicate(r) for r in residuals]
    buckets = [{} for _ in predicates]
    offenders = []
    # typecheck's empty arrays skip the cut, whose cost grows with the arity
    if assoc:
        cuts, segments = zip(*(_segments(boxes, d) for d in range(arity)))
        # each association's cell: its segment on every dimension
        cells = list(zip(*(
            map(bisect_right, repeat(c), map(itemgetter(d), assoc)) for d, c in enumerate(cuts)
        )))
        route, mixed = {}, []
        for cell in set(cells):
            candidates = sorted(set.intersection(*map(getitem, segments, cell)))
            if len(candidates) == 1 and tests[candidates[0]] is None:
                route[cell] = buckets[candidates[0]]
            else:
                route[cell] = rows = {}
                mixed.append((candidates, rows))
        # file every association under its cell's bucket or its mixed rows
        deque(map(setitem, map(route.__getitem__, cells), assoc, assoc.values()), maxlen=0)
        for candidates, rows in mixed:
            for index, value in rows.items():
                matches = [k for k in candidates if tests[k] is None or tests[k](index, value)]
                if len(matches) == 1:
                    buckets[matches[0]][index] = value
                else:
                    offenders.append((index, matches))
    if offenders:
        index, matches = min(offenders)
        if matches:
            raise NotDisjoint(
                f"index {show(index)} matches predicates {matches[0]} and {matches[1]}",
                index=index,
            )
        raise NotExhaustive(f"index {show(index)} matches no partition predicate", index=index)
    shards = _shard_ids(len(predicates), shard_ids)
    fragments = tuple(
        Fragment(f"f{k}", Array._of(array.arity, bucket), shards[k])
        for k, bucket in enumerate(buckets)
    )
    return Placement(fragments, VerticalSplit(predicates), array.arity)


def _tuple_width(array: Array) -> Optional[int]:
    """Uniform TupleV arity of the array's values, or None for empty arrays.

    The width is that of the lowest index's value; a value that is not a
    tuple of that width raises, naming the lowest such index.
    """
    assoc = array._assoc
    if not assoc:
        return None
    first = assoc[min(assoc)]
    width = len(first.items) if isinstance(first, TupleV) else None
    bad = [i for i, v in assoc.items() if not isinstance(v, TupleV) or len(v.items) != width]
    if bad:
        index = min(bad)
        value = assoc[index]
        if not isinstance(value, TupleV):
            raise NotTupleValued(f"value at {show(index)} is not a tuple")
        raise NotTupleValued(
            f"value at {show(index)} has {len(value.items)} components, expected {width}"
        )
    return width


def _check_slices(slices: Sequence, width: Optional[int]) -> tuple:
    try:
        slices = list(slices)
    except TypeError:
        raise BadSlices(f"slices {show(slices)} are not a list of slices") from None
    for k, s in enumerate(slices):
        try:
            slices[k] = s = tuple(s)
        except TypeError:
            raise BadSlices(f"slice {k} is {show(s)}, not a list of positions") from None
        for p in s:
            if not isinstance(p, int) or isinstance(p, bool):
                raise BadSlices(f"position {show(p)} in slice {k} is not an integer")
    slices = tuple(tuple(sorted(set(s))) for s in slices)
    if not slices:
        raise BadSlices("at least one slice is required")
    seen: dict = {}
    for k, s in enumerate(slices):
        if not s:
            raise BadSlices(f"slice {k} is empty")
        for p in s:
            if p < 0:
                raise BadSlices(f"negative position {show(p)} in slice {k}")
            if p in seen:
                raise BadSlices(f"position {show(p)} appears in slices {seen[p]} and {k}")
            seen[p] = k
    # the lowest uncovered position is at most len(seen): no range of the
    # largest position is built, so a huge one costs nothing
    gap = next(p for p in range(len(seen) + 1) if p not in seen)
    top = width if width is not None else max(seen) + 1
    if gap < top:
        raise BadSlices(f"position {gap} is not covered by any slice")
    if width is not None and max(seen) >= width:
        raise BadSlices(
            f"position {show(max(seen))} is out of range for {width}-component values"
        )
    return slices


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
    wrap = TupleV._of
    for k, positions in enumerate(slices):
        get = itemgetter(*positions)
        # a singleton slice stores the bare component, not a 1-tuple
        if len(positions) == 1:
            assoc = {i: get(v.items) for i, v in array._assoc.items()}
        else:
            assoc = {i: wrap(get(v.items)) for i, v in array._assoc.items()}
        fragments.append(Fragment(f"f{k}", Array._of(array.arity, assoc), shards[k]))
    return Placement(tuple(fragments), HorizontalSplit(slices), array.arity)


def _reassemble_horizontal(placement: Placement) -> Array:
    slices = _check_slices(placement.scheme.slices, None)
    if len(slices) != len(placement.fragments):
        raise BadSlices(f"{len(slices)} slices for {len(placement.fragments)} fragments")
    assocs = [f.array._assoc for f in placement.fragments]
    for fragment, assoc, positions in zip(placement.fragments, assocs, slices):
        n = len(positions)
        if n == 1:
            continue
        bad = [i for i, v in assoc.items() if not isinstance(v, TupleV) or len(v.items) != n]
        if bad:
            raise NotTupleValued(
                f"fragment {fragment.fragment_id!r}: value at {show(min(bad))} "
                f"is not a {n}-tuple"
            )
    # the join keeps only the indices every fragment holds, which is what
    # makes a selection pushed down to one fragment restrict the whole result
    first, *rest = assocs
    indices = list(set(first).intersection(*rest))
    # one column of components per position, zipped into the value tuples
    columns = [None] * sum(map(len, slices))
    for assoc, positions in zip(assocs, slices):
        values = [assoc[i] for i in indices]
        # the scheme, not the value's shape, decides how to unpack: a
        # singleton slice stored the bare component, even a tuple one
        if len(positions) == 1:
            columns[positions[0]] = values
        else:
            for k, p in enumerate(positions):
                columns[p] = [v.items[k] for v in values]
    return Array._of(placement.origin_arity, dict(zip(indices, map(TupleV._of, zip(*columns)))))


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
    subs = children(pred)
    return type(pred)(*(_localize(c, positions) for c in subs)) if subs else pred


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
                raise NotPushable(f"value position {show(p)} is outside every slice")
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
