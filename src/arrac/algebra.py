"""The array operators: projection, selection, cross product, index
transformation, union, and the derived join forms.

All operations are pure functions closed over :class:`~arrac.core.Array`;
every result satisfies the functional invariant by construction.  Contents
are treated as a black box: joins match on index coordinates only.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .core import Array, TupleV, _check_index
from .errors import ArityMismatch, ConsistencyViolation, PredicateArity
from .predicates import And, CoordCmp, Cmp, Predicate, TRUE, check_dims, holds, references_value
from .transforms import TransformSpec, apply_steps, invert_steps

OnPairs = Iterable[Tuple[int, int]]


def project(array: Array, indexes) -> Array:
    """Filter the array down to the given index set.

    The arity does not change. Indexes outside the support are ignored (the
    set is intersected with the support internally).  For convenience a
    coordinate predicate may be passed instead of a literal set; it is
    compiled to the same filter.
    """
    if not isinstance(indexes, (set, frozenset, list, tuple)):
        # intensional form: a predicate over the index coordinates
        pred = indexes
        if references_value(pred):
            raise ValueError("project accepts only predicates over index coordinates")
        return select(array, pred)
    keep = set()
    for index in indexes:
        keep.add(_check_index(index, array.arity))
    return Array(array.arity, ((i, v) for i, v in array.items() if i in keep))


def select(array: Array, pred: Predicate) -> Array:
    """Keep the associations on which the condition holds. Arity unchanged."""
    check_dims(pred, array.arity)
    return Array(array.arity, ((i, v) for i, v in array.items() if holds(pred, i, v)))


def cross(a: Array, b: Array) -> Array:
    """Cross product: indices concatenate, values pair up.

    The result has arity ``a.arity + b.arity`` and exactly ``len(a) * len(b)``
    associations; nothing is added and nothing is lost.
    """
    pairs = []
    for i, d in a.items():
        for j, e in b.items():
            pairs.append((i + j, TupleV((d, e))))
    return Array(a.arity + b.arity, pairs)


def transform(array: Array, steps: TransformSpec) -> Array:
    """Apply an index transformation; see :mod:`arrac.transforms`."""
    return apply_steps(array, steps)


def invert(steps: TransformSpec, support_after) -> list:
    """Inverse transformation; see :func:`arrac.transforms.invert_steps`."""
    return invert_steps(steps, support_after)


def union(a: Array, b: Array) -> Array:
    """Set union of the associations.

    Fails with ConsistencyViolation, naming a witnessing index, when the two
    arrays disagree on a shared index.  Identical duplicates merge.
    """
    if a.arity != b.arity:
        raise ArityMismatch(
            f"cannot union a {a.arity}-d array with a {b.arity}-d array"
        )
    merged = {i: v for i, v in a.items()}
    for i, v in b.items():
        old = merged.get(i)
        if old is None:
            merged[i] = v
        elif old != v:
            raise ConsistencyViolation(
                f"union conflict at index {i!r}", index=i
            )
    return Array(a.arity, merged.items())


def _check_on(a: Array, b: Array, on: OnPairs) -> tuple:
    pairs = tuple(sorted(set((int(da), int(db)) for da, db in on)))
    for da, db in pairs:
        if not 0 <= da < a.arity:
            raise PredicateArity(f"join dimension {da} out of range for left arity {a.arity}")
        if not 0 <= db < b.arity:
            raise PredicateArity(f"join dimension {db} out of range for right arity {b.arity}")
    return pairs


def join_condition(a: Array, on: OnPairs) -> Predicate:
    """The coordinate-equality condition an equi-join applies to cross(a, b)."""
    leaves = [CoordCmp(Cmp.EQ, da, a.arity + db) for da, db in sorted(set(on))]
    if not leaves:
        return TRUE
    if len(leaves) == 1:
        return leaves[0]
    return And(tuple(leaves))


def equi_join(a: Array, b: Array, on: OnPairs) -> Array:
    """Filtered cross product: keep pairs whose indices agree on ``on``.

    Matches selecting the cross product with a conjunction of coordinate
    equalities; a hash join produces the identical association set without
    materialising the full cross product.
    """
    on = _check_on(a, b, on)
    if not on:
        return cross(a, b)
    buckets: dict = {}
    for j, e in b.items():
        buckets.setdefault(tuple(j[db] for _, db in on), []).append((j, e))
    pairs = []
    for i, d in a.items():
        for j, e in buckets.get(tuple(i[da] for da, _ in on), ()):
            pairs.append((i + j, TupleV((d, e))))
    return Array(a.arity + b.arity, pairs)


def semi_join(a: Array, b: Array, on: OnPairs) -> Array:
    """Associations of ``a`` whose index matches at least one ``b`` index.

    The result keeps ``a``'s arity and values: the pairing dimensions and
    values contributed by ``b`` are reduced away.
    """
    on = _check_on(a, b, on)
    keys = {tuple(j[db] for _, db in on) for j in b.support()}
    return Array(
        a.arity,
        ((i, d) for i, d in a.items() if tuple(i[da] for da, _ in on) in keys),
    )


def anti_join(a: Array, b: Array, on: OnPairs) -> Array:
    """Associations of ``a`` matching no ``b`` index; complement of semi_join."""
    on = _check_on(a, b, on)
    keys = {tuple(j[db] for _, db in on) for j in b.support()}
    return Array(
        a.arity,
        ((i, d) for i, d in a.items() if tuple(i[da] for da, _ in on) not in keys),
    )
