"""The array operators: projection, selection, cross product, index
transformation, union, and the derived join forms.

All operations are pure functions closed over :class:`~arrac.core.Array`;
every result satisfies the functional invariant by construction.  Contents
are treated as a black box: joins match on index coordinates only.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Tuple

from .core import Array, TupleV, _check_index, show
from .errors import ArityMismatch, ConsistencyViolation, PredicateArity
from .predicates import And, CoordCmp, Cmp, Predicate, TRUE, check_dims, compile_predicate
from .transforms import apply_steps, invert_steps

OnPairs = Iterable[Tuple[int, int]]


def project(array: Array, indexes) -> Array:
    """Filter the array down to the given index set.

    The arity does not change. Indexes outside the support are ignored (the
    set is intersected with the support internally).  ``indexes`` is a
    collection of index tuples; a condition is :func:`select`'s to apply.
    """
    if not isinstance(indexes, (set, frozenset, list, tuple)):
        raise ArityMismatch(
            f"project takes a collection of index tuples, not a {type(indexes).__name__}"
        )
    assoc, arity = array._assoc, array.arity
    keep = {_check_index(index, arity) for index in indexes}
    return Array._of(arity, {i: assoc[i] for i in keep if i in assoc})


def select(array: Array, pred: Predicate) -> Array:
    """Keep the associations on which the condition holds. Arity unchanged."""
    check_dims(pred, array.arity)
    if not array._assoc:  # nothing to test, as when typecheck runs it
        return array
    test = compile_predicate(pred)
    return Array._of(array.arity, {i: v for i, v in array._assoc.items() if test(i, v)})


def cross(a: Array, b: Array) -> Array:
    """Cross product: indices concatenate, values pair up.

    The result has arity ``a.arity + b.arity`` and exactly ``len(a) * len(b)``
    associations; nothing is added and nothing is lost.  It is the equi-join
    on no dimensions.
    """
    return equi_join(a, b, ())


# index transformation and its inverse; see :mod:`arrac.transforms`
transform, invert = apply_steps, invert_steps


def union(a: Array, b: Array) -> Array:
    """Set union of the associations.

    Fails with ConsistencyViolation, naming a witnessing index, when the two
    arrays disagree on a shared index.  Identical duplicates merge.
    """
    if a.arity != b.arity:
        raise ArityMismatch(
            f"cannot union a {a.arity}-d array with a {b.arity}-d array"
        )
    return merge(a.arity, (a, b))


def merge(arity: int, arrays: Iterable[Array]) -> Array:
    """Union of ``arrays`` of one arity in one pass.  Equals a left fold of
    :func:`union`, witness included: the lowest conflicting index of the
    first array that conflicts with those before it."""
    merged: dict = {}
    for array in arrays:
        clash = [i for i, v in array._assoc.items()
                 if (old := merged.setdefault(i, v)) is not v and old != v]
        if clash:
            index = min(clash)
            raise ConsistencyViolation(f"union conflict at index {show(index)}", index=index)
    return Array._of(arity, merged)


def _pairs(on: OnPairs) -> tuple:
    try:
        on = tuple(on)
    except TypeError:
        raise PredicateArity(f"join pairs {show(on)} are not a list of pairs") from None
    pairs = []
    for pair in on:
        try:
            da, db = pair
        except (TypeError, ValueError):
            raise PredicateArity(f"join pair {show(pair)} is not a pair of dimensions") from None
        pairs.append((da, db))
    for d in (d for pair in pairs for d in pair):
        if not isinstance(d, int) or isinstance(d, bool):
            raise PredicateArity(f"join dimension {show(d)} is not an integer")
    return tuple(sorted(set(pairs)))


def _key_getters(a: Array, b: Array, on: OnPairs) -> tuple:
    """Each side's join key over the pairs of ``on``, checked against both arities."""
    pairs = _pairs(on)
    for da, db in pairs:
        if not 0 <= da < a.arity:
            raise PredicateArity(f"join dimension {show(da)} out of range for left arity {a.arity}")
        if not 0 <= db < b.arity:
            raise PredicateArity(f"join dimension {show(db)} out of range for right arity {b.arity}")
    if not pairs:
        return (lambda i: (),) * 2
    return tuple(itemgetter(*dims) for dims in zip(*pairs))


def join_condition(a: Array, on: OnPairs) -> Predicate:
    """The coordinate-equality condition an equi-join applies to cross(a, b),
    with ``on`` checked as the joins check it, save against the arities."""
    leaves = [CoordCmp(Cmp.EQ, da, a.arity + db) for da, db in _pairs(on)]
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
    left_key, right_key = _key_getters(a, b, on)
    buckets: dict = {}
    for j, e in b._assoc.items():
        buckets.setdefault(right_key(j), []).append((j, e))
    wrap = TupleV._of
    return Array._of(a.arity + b.arity, {
        i + j: wrap((d, e))
        for i, d in a._assoc.items() for j, e in buckets.get(left_key(i), ())
    })


def _keyed_filter(a: Array, b: Array, on: OnPairs, matched: bool) -> Array:
    """Associations of ``a`` whose index does (or does not) match a ``b`` index."""
    left_key, right_key = _key_getters(a, b, on)
    keys = set(map(right_key, b._assoc))
    return Array._of(a.arity, {
        i: d for i, d in a._assoc.items() if (left_key(i) in keys) is matched
    })


def semi_join(a: Array, b: Array, on: OnPairs) -> Array:
    """Associations of ``a`` whose index matches at least one ``b`` index.

    The result keeps ``a``'s arity and values: the pairing dimensions and
    values contributed by ``b`` are reduced away.
    """
    return _keyed_filter(a, b, on, True)


def anti_join(a: Array, b: Array, on: OnPairs) -> Array:
    """Associations of ``a`` matching no ``b`` index; complement of semi_join."""
    return _keyed_filter(a, b, on, False)
