import functools
import random

import pytest

from arrac import (
    And,
    Array,
    Cmp,
    CoordCmp,
    CoordConst,
    Fragment,
    HorizontalSplit,
    ItemCmp,
    Not,
    Or,
    Placement,
    TRUE,
    TupleV,
    ValueCmp,
    VerticalSplit,
    equi_join,
    partition_horizontal,
    partition_vertical,
    push_select,
    reassemble,
    select,
    transform,
    union,
)
from arrac.errors import (
    ArityMismatch,
    BadSlices,
    ConsistencyViolation,
    NotDisjoint,
    NotExhaustive,
    NotPushable,
    NotTupleValued,
    PredicateArity,
)

from arrac import arrfile, distribution
from arrac.predicates import compile_predicate, holds, leaves
from arrac.qlang import parse_predicate
from arrac.transforms import RemoveDim

from randgen import (
    rand_array,
    rand_partition_preds,
    rand_pred,
    rand_scalar,
    rand_slices,
    rand_tuple_array,
)


def halves(dim=0, at=0):
    return [CoordConst(Cmp.LT, dim, at), CoordConst(Cmp.GE, dim, at)]


def test_vertical_fragments_partition_the_support():
    rng = random.Random(47)
    a = rand_array(rng, arity=2, max_size=20)
    placement = partition_vertical(a, halves())
    sizes = [len(f.array) for f in placement.fragments]
    assert sum(sizes) == len(a)
    supports = [f.array.support() for f in placement.fragments]
    assert supports[0] & supports[1] == frozenset()


def test_vertical_round_trip():
    rng = random.Random(53)
    for _ in range(50):
        a = rand_array(rng, max_size=15)
        placement = partition_vertical(a, rand_partition_preds(rng, a.arity))
        assert reassemble(placement) == a


def test_vertical_rejects_overlapping_predicates():
    a = Array(1, [((0,), "x")])
    with pytest.raises(NotDisjoint) as err:
        partition_vertical(a, [TRUE, CoordConst(Cmp.EQ, 0, 0)])
    assert err.value.index == (0,)


def test_vertical_rejects_gaps():
    a = Array(1, [((5,), "x")])
    with pytest.raises(NotExhaustive) as err:
        partition_vertical(a, halves(at=0)[:1])
    assert err.value.index == (5,)


def test_vertical_needs_a_predicate_even_for_an_empty_array():
    # no fragment list could be written as a manifest or parsed as a query
    for a in (Array(2), Array(1, [((5,), "x")])):
        with pytest.raises(PredicateArity, match="^vpartition needs at least one predicate$"):
            partition_vertical(a, [])


# Each family names a dimension a 2-d array lacks; the check must name it
# before any association is routed, ahead of any overlap or gap.
_OUT_OF_RANGE = {
    "and-beside-decided-leaf": (
        [CoordConst(Cmp.LT, 0, 0), And(CoordConst(Cmp.GE, 0, 0), CoordConst(Cmp.EQ, 5, 1)), TRUE], 5),
    "under-or": ([Or(CoordConst(Cmp.EQ, 0, 1), CoordCmp(Cmp.LT, 1, 3)), TRUE, TRUE], 3),
    "under-not": ([CoordConst(Cmp.GE, 0, 9), Not(CoordConst(Cmp.LE, 4, 0))], 4),
    "ne-leaf": ([CoordConst(Cmp.NE, -1, 0)], -1),
    "two-bad-smaller-second": ([And(CoordConst(Cmp.GE, 7, 0), CoordConst(Cmp.LT, 3, 9)), TRUE], 3),
    "two-bad-in-one-leaf": ([TRUE, CoordCmp(Cmp.EQ, 6, 2)], 2),
}


@pytest.mark.parametrize("array", [Array(2), Array(2, [((0, 0), 1), ((1, 1), 2), ((-1, 0), 3)])],
                         ids=["empty", "non-empty"])
@pytest.mark.parametrize("case", _OUT_OF_RANGE, ids=str)
def test_vertical_names_an_out_of_range_dimension_before_routing(array, case):
    predicates, dim = _OUT_OF_RANGE[case]
    with pytest.raises(PredicateArity, match=rf"^predicate references dimension {dim} of a 2-d array$"):
        partition_vertical(array, predicates)


def test_single_fragment_scheme():
    a = Array(1, [((0,), "x")])
    placement = partition_vertical(a, [TRUE])
    assert len(placement.fragments) == 1
    assert reassemble(placement) == a


def test_empty_array_is_partitioned_without_a_cut(monkeypatch):
    # the cut takes time in the arity, and typecheck (a manifest's reader
    # among its callers) partitions an empty array of any arity
    monkeypatch.setattr(distribution, "_segments", None)
    empty = Array._of(10**6, {})
    placement = partition_vertical(empty, [CoordConst(Cmp.EQ, 0, 0), CoordConst(Cmp.NE, 0, 0)])
    assert [f.array for f in placement.fragments] == [empty, empty]


def test_shard_ids_default_and_custom():
    a = Array(1, [((0,), "x")])
    placement = partition_vertical(a, halves(), shard_ids=["east", "west"])
    assert [f.shard_id for f in placement.fragments] == ["east", "west"]
    placement = partition_vertical(a, halves())
    assert [f.shard_id for f in placement.fragments] == ["shard-0", "shard-1"]


def test_horizontal_fragments_duplicate_the_index():
    t = Array(1, [((0,), (1, "x", 2.5)), ((1,), (2, "y", 3.5))])
    placement = partition_horizontal(t, [{0}, {1, 2}])
    for fragment in placement.fragments:
        assert fragment.array.support() == t.support()
    # singleton slice stores the bare component
    assert placement.fragments[0].array[(0,)].value == 1
    assert placement.fragments[1].array[(0,)] == TupleV(t[(0,)].items[1:])


def test_horizontal_round_trip():
    rng = random.Random(59)
    for _ in range(50):
        width = rng.randint(1, 4)
        t = rand_tuple_array(rng, rng.randint(1, 3), width)
        placement = partition_horizontal(t, rand_slices(rng, width))
        assert reassemble(placement) == t


def test_horizontal_needs_uniform_tuples():
    with pytest.raises(NotTupleValued):
        partition_horizontal(Array(1, [((0,), 3)]), [{0}])
    ragged = Array(1, [((0,), (1, 2)), ((1,), (1, 2, 3))])
    with pytest.raises(NotTupleValued):
        partition_horizontal(ragged, [{0}, {1}])


def test_bad_slices_are_rejected():
    t = Array(1, [((0,), (1, 2, 3))])
    with pytest.raises(BadSlices):
        partition_horizontal(t, [{0}, {0, 1}, {2}])  # overlap
    with pytest.raises(BadSlices):
        partition_horizontal(t, [{0}, {2}])  # gap
    with pytest.raises(BadSlices):
        partition_horizontal(t, [{0, 1, 2}, set()])  # empty group
    with pytest.raises(BadSlices):
        partition_horizontal(t, [{0, 1, 2, 3}])  # out of range
    with pytest.raises(BadSlices, match="^at least one slice is required$"):
        partition_horizontal(t, [])
    with pytest.raises(BadSlices, match="^negative position -1 in slice 0$"):
        partition_horizontal(t, [[-1]])


@pytest.mark.parametrize("position", [0.7, 1.0, True, "1"], ids=["float", "one-float", "bool", "str"])
def test_slice_positions_must_be_integers(position):
    t = Array(1, [((0,), (1, 2))])
    with pytest.raises(BadSlices) as err:
        partition_horizontal(t, [[0], [position]])
    assert str(err.value) == f"position {position!r} in slice 1 is not an integer"


@pytest.mark.parametrize(
    "slices, message",
    [
        (7, "slices 7 are not a list of slices"),
        ([0, 1], "slice 0 is 0, not a list of positions"),
        ([[0], None], "slice 1 is None, not a list of positions"),
    ],
    ids=["int", "ints", "none"],
)
def test_malformed_slices_are_refused(slices, message):
    t = Array(1, [((0,), (1, 2))])
    with pytest.raises(BadSlices) as err:
        partition_horizontal(t, slices)
    assert str(err.value) == message


def test_one_component_tuples_survive_a_singleton_slice():
    t = Array(2, [((0, 0), (5,)), ((1, 2), ((1, "x"),)), ((2, 1), (None,))])
    placement = partition_horizontal(t, [[0]])
    # the fragment stores the bare component, a tuple one included
    assert placement.fragments[0].array[(1, 2)] == TupleV((1, "x"))
    back = reassemble(placement)
    assert back == t
    assert all(type(v) is TupleV and len(v.items) == 1 for _, v in back.items())
    assert arrfile.dumps(back) == arrfile.dumps(t)


def test_push_select_vertical_any_predicate():
    rng = random.Random(61)
    for _ in range(50):
        a = rand_array(rng, max_size=15)
        placement = partition_vertical(a, rand_partition_preds(rng, a.arity))
        pred = rand_pred(rng, a.arity)
        pushed = push_select(placement, pred)
        assert reassemble(pushed) == select(a, pred)


def test_push_select_horizontal_index_predicate_goes_everywhere():
    rng = random.Random(67)
    for _ in range(50):
        width = rng.randint(1, 4)
        t = rand_tuple_array(rng, rng.randint(1, 3), width)
        placement = partition_horizontal(t, rand_slices(rng, width))
        pred = rand_pred(rng, t.arity, allow_value=False)
        pushed = push_select(placement, pred)
        assert reassemble(pushed) == select(t, pred)
        for original, filtered in zip(placement.fragments, pushed.fragments):
            assert filtered.array.support() <= original.array.support()


def test_push_select_horizontal_single_slice_value_predicate():
    t = Array(1, [((0,), (1, "x")), ((1,), (2, "y")), ((2,), (1, "z"))])
    placement = partition_horizontal(t, [{0}, {1}])
    pred = ItemCmp(Cmp.EQ, 0, 1)
    pushed = push_select(placement, pred)
    assert reassemble(pushed) == select(t, pred)
    # the untouched fragment is passed through unchanged
    assert pushed.fragments[1].array == placement.fragments[1].array


def test_push_select_not_pushable_cases():
    t = Array(1, [((0,), (1, "x"))])
    placement = partition_horizontal(t, [{0}, {1}])
    with pytest.raises(NotPushable):
        push_select(placement, ValueCmp(Cmp.EQ, (1, "x")))
    from arrac import And

    with pytest.raises(NotPushable):
        push_select(placement, And(ItemCmp(Cmp.EQ, 0, 1), ItemCmp(Cmp.EQ, 1, "x")))
    with pytest.raises(NotPushable):
        push_select(placement, ItemCmp(Cmp.EQ, 7, 1))
    with pytest.raises(NotPushable):
        push_select(placement, Not(ValueCmp(Cmp.EQ, 3)))


def test_push_select_true_is_identity():
    t = Array(1, [((0,), (1, "x"))])
    placement = partition_horizontal(t, [{0}, {1}])
    pushed = push_select(placement, TRUE)
    assert [f.array for f in pushed.fragments] == [f.array for f in placement.fragments]


def test_tampered_vertical_overlap_conflicts():
    a = Array(1, [((0,), "x"), ((1,), "y")])
    placement = partition_vertical(a, halves(at=1))
    # tamper: copy index (0,) into the second fragment with a different value
    bad = union(placement.fragments[1].array, Array(1))
    bad = Array(1, list(bad.items()) + [((0,), "TAMPERED")])
    tampered = Placement(
        (placement.fragments[0], Fragment("f1", bad, "shard-1")),
        placement.scheme,
        placement.origin_arity,
    )
    with pytest.raises(ConsistencyViolation):
        reassemble(tampered)


def test_tampered_horizontal_value_goes_undetected():
    # documented behavior: value edits pair up silently through the join
    t = Array(1, [((0,), (1, "x"))])
    placement = partition_horizontal(t, [{0}, {1}])
    bad = Array(1, [((0,), "EDITED")])
    tampered = Placement(
        (placement.fragments[0], Fragment("f1", bad, "shard-1")),
        placement.scheme,
        placement.origin_arity,
    )
    out = reassemble(tampered)
    assert out[(0,)] == TupleV(t[(0,)].items[:1] + (bad[(0,)],))


@pytest.mark.parametrize(
    "slices, message",
    [
        # a position in two slices: the second fragment would overwrite it
        (((0,), (0,)), "position 0 appears in slices 0 and 1"),
        # a position past the width: a gap below it
        (((0,), (5,)), "position 1 is not covered"),
        # one slice with no fragment: its positions would stay unset
        (((0,), (1,), (2,)), "3 slices for 2 fragments"),
    ],
    ids=["overlap", "gap", "count"],
)
def test_horizontal_placement_built_in_process_is_checked(slices, message):
    placement = partition_horizontal(T3, [{0}, {1, 2}])
    bad = Placement(placement.fragments, HorizontalSplit(slices), 1)
    with pytest.raises(BadSlices, match=message):
        reassemble(bad)


@pytest.mark.parametrize("arity", [True, 1.0])
def test_reassemble_checks_origin_arity(arity):
    # both equal 1, the fragments' arity, yet neither is a valid arity
    for placement in (partition_vertical(T3, [TRUE]), partition_horizontal(T3, [{0}, {1, 2}])):
        with pytest.raises(ValueError, match="arity must be a positive integer"):
            reassemble(Placement(placement.fragments, placement.scheme, arity))


def test_placement_fragment_ids_unique():
    a = Array(1, [((0,), "x")])
    frag = Fragment("f0", a, "s")
    with pytest.raises(ValueError):
        Placement((frag, frag), VerticalSplit((TRUE, TRUE)), 1)


T3 = Array(1, [((0,), (1, "x", 2.5)), ((1,), (2, "y", 3.5)), ((2,), (3, "z", 4.5))])


def _with_fragment(placement, k, array):
    fragments = list(placement.fragments)
    fragments[k] = Fragment(fragments[k].fragment_id, array, fragments[k].shard_id)
    return Placement(tuple(fragments), placement.scheme, placement.origin_arity)


@pytest.mark.parametrize(
    "k, array, error, witness",
    [
        # a scalar where a 2-slot tuple belongs
        (1, Array(1, [((0,), ("x", 2.5)), ((1,), "y"), ((2,), "z")]), NotTupleValued, "(1,)"),
        # a tuple too short for its slice
        (1, Array(1, [((0,), ("x", 2.5)), ((1,), ("y", 3.5)), ((2,), ("z",))]), NotTupleValued, "(2,)"),
        # a tuple too long for its slice
        (1, Array(1, [((0,), ("x", 2.5, 7)), ((1,), ("y", 3.5)), ((2,), ("z", 4.5))]), NotTupleValued, "(0,)"),
        # wrong arity, first fragment and a later one
        (0, Array(2, [((0, 0), 1), ((1, 0), 2), ((2, 0), 3)]), ArityMismatch, "'f0'"),
        (1, Array(2, [((0, 0), ("x", 2.5))]), ArityMismatch, "'f1'"),
    ],
    ids=["scalar", "short-tuple", "long-tuple", "arity-first", "arity-later"],
)
def test_tampered_horizontal_shape_is_detected(k, array, error, witness):
    placement = partition_horizontal(T3, [{0}, {1, 2}])
    with pytest.raises(error) as err:
        reassemble(_with_fragment(placement, k, array))
    assert f"'f{k}'" in str(err.value)
    assert witness in str(err.value)


def test_oracle_vertical_fragments_are_selections():
    rng = random.Random(71)
    for _ in range(100):
        a = rand_array(rng, max_size=15)
        preds = rand_partition_preds(rng, a.arity)
        placement = partition_vertical(a, preds)
        assert [f.array for f in placement.fragments] == [select(a, p) for p in preds]


def _union_fold(placement):
    return functools.reduce(
        union, (f.array for f in placement.fragments), Array(placement.origin_arity)
    )


def test_oracle_vertical_reassemble_is_union_fold():
    rng = random.Random(73)
    conflicts = 0
    for _ in range(200):
        a = rand_array(rng, max_size=15)
        placement = partition_vertical(a, rand_partition_preds(rng, a.arity))
        assert reassemble(placement) == _union_fold(placement)
        # tamper: copy an index into another fragment, with a fresh value
        # half of the time and the same value otherwise
        donors = [k for k, f in enumerate(placement.fragments) if len(f.array)]
        if not donors or len(placement.fragments) < 2:
            continue
        j = rng.choice(donors)
        k = rng.choice([k for k in range(len(placement.fragments)) if k != j])
        index, value = rng.choice(list(placement.fragments[j].array.items()))
        if rng.random() < 0.5:
            value = ("TAMPERED", rng.randint(0, 9))
        extra = Array(a.arity, list(placement.fragments[k].array.items()) + [(index, value)])
        tampered = _with_fragment(placement, k, extra)
        try:
            expected = _union_fold(tampered)
        except ConsistencyViolation as want:
            conflicts += 1
            with pytest.raises(ConsistencyViolation) as got:
                reassemble(tampered)
            assert got.value.index == want.index
        else:
            assert reassemble(tampered) == expected
    assert conflicts > 20


def test_oracle_partition_errors_name_the_lowest_index():
    rng = random.Random(79)
    checked = 0
    for _ in range(200):
        a = rand_array(rng, max_size=15)
        preds = rand_partition_preds(rng, a.arity)
        # one predicate more makes every index it holds on a double match
        extra = rand_pred(rng, a.arity)
        doubles = [i for i, v in a.items() if holds(extra, i, v)]
        if doubles:
            with pytest.raises(NotDisjoint) as err:
                partition_vertical(a, preds + [extra])
            assert err.value.index == doubles[0]
            checked += 1
        # one predicate fewer leaves the indices it held unmatched
        k = rng.randrange(len(preds))
        gaps = sorted(select(a, preds[k]).support())
        if gaps:
            with pytest.raises(NotExhaustive) as err:
                partition_vertical(a, preds[:k] + preds[k + 1:])
            assert err.value.index == gaps[0]
            checked += 1
    assert checked > 100


def _join_reassemble(placement):
    """The paper's definition: equi-join the fragments on every index
    dimension, drop the duplicated coordinates, then put each component
    back in its original position."""
    arity = placement.origin_arity
    slices = placement.scheme.slices
    on = [(d, d) for d in range(arity)]

    def parts(value, positions):
        return (value,) if len(positions) == 1 else value.items

    first = placement.fragments[0].array
    acc = Array(arity, ((i, TupleV(parts(v, slices[0]))) for i, v in first.items()))
    for fragment, positions in zip(placement.fragments[1:], slices[1:]):
        joined = transform(equi_join(acc, fragment.array, on), [RemoveDim(arity)] * arity)
        acc = Array(
            arity,
            (
                (i, TupleV(pair.items[0].items + parts(pair.items[1], positions)))
                for i, pair in joined.items()
            ),
        )
    order = [p for s in slices for p in s]
    return Array(
        arity,
        ((i, TupleV(tuple(v.items[order.index(p)] for p in range(len(order))))) for i, v in acc.items()),
    )


def test_oracle_horizontal_reassemble_is_join():
    rng = random.Random(83)
    for _ in range(200):
        width = rng.randint(1, 4)
        t = rand_tuple_array(rng, rng.randint(1, 3), width, max_size=15)
        placement = partition_horizontal(t, rand_slices(rng, width))
        pushed = push_select(placement, rand_pred(rng, t.arity, allow_value=False))
        # a value predicate filters one fragment only, so the supports differ
        position = rng.randrange(width)
        constant = rand_scalar(rng)
        pushed = push_select(pushed, ItemCmp(rng.choice(list(Cmp)), position, constant))
        assert reassemble(pushed) == _join_reassemble(pushed)


def _rand_slice_pred(rng, array, positions, depth=0):
    """A nested And/Or/Not tree whose leaves compare index coordinates or, as
    ItemCmp, the value components at ``positions`` (one slice's positions);
    half the ItemCmp constants are drawn from ``array``'s values."""
    roll = rng.random()
    if depth < 3 and roll < 0.15:
        return Not(_rand_slice_pred(rng, array, positions, depth + 1))
    if depth < 3 and roll < 0.5:
        kids = tuple(_rand_slice_pred(rng, array, positions, depth + 1)
                     for _ in range(rng.randint(2, 3)))
        return And(kids) if rng.random() < 0.5 else Or(kids)
    if roll < 0.8:
        position = rng.choice(positions)
        values = [v for _, v in array.items()]
        if values and rng.random() < 0.5:
            constant = rng.choice(values).items[position]
        else:
            constant = rand_scalar(rng)
        return ItemCmp(rng.choice(list(Cmp)), position, constant)
    # at depth 2 rand_pred draws a leaf
    return rand_pred(rng, array.arity, depth=2, allow_value=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_push_select_localizes_nested_value_predicates(seed):
    rng = random.Random(seed)
    nested = {1: 0, 2: 0}  # by the target slice's width: ValueCmp or ItemCmp leaves
    for _ in range(150):
        width = rng.randint(1, 4)
        t = rand_tuple_array(rng, rng.randint(1, 3), width, max_size=15)
        placement = partition_horizontal(t, rand_slices(rng, width))
        positions = rng.choice(placement.scheme.slices)
        pred = _rand_slice_pred(rng, t, positions)
        kinds = {type(leaf) for leaf in leaves(pred)}
        if isinstance(pred, (And, Or, Not)) and ItemCmp in kinds and kinds - {ItemCmp}:
            nested[min(len(positions), 2)] += 1
        pushed = push_select(placement, pred)
        assert reassemble(pushed) == select(reassemble(placement), pred)
    assert min(nested.values()) >= 10, nested


# --- partitioning without the canonical-order loops ---------------------------


def _outcome(call):
    """What a call gives back, or its error class, message and witness."""
    try:
        return call()
    except (NotDisjoint, NotExhaustive, NotTupleValued) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def _all_predicates_partition(array, predicates):
    """Every predicate tested on every association, in canonical order."""
    tests = [compile_predicate(p) for p in predicates]
    buckets = [{} for _ in predicates]
    for index, value in array.items():
        matches = [k for k, test in enumerate(tests) if test(index, value)]
        if len(matches) > 1:
            raise NotDisjoint(
                f"index {index!r} matches predicates {matches[0]} and {matches[1]}",
                index=index,
            )
        if not matches:
            raise NotExhaustive(f"index {index!r} matches no partition predicate", index=index)
        buckets[matches[0]][index] = value
    return [Array(array.arity, b.items()) for b in buckets]


def _stripes(rng, arity):
    """Equality stripes on one dimension, or boxed halves of a random split."""
    dim = rng.randrange(arity)
    if rng.random() < 0.5:
        return [CoordConst(Cmp.EQ, dim, c) for c in range(-8, 9)] + [
            CoordConst(Cmp.LT, dim, -8), CoordConst(Cmp.GT, dim, 8)]
    cut = rng.randint(-8, 8)
    other = rng.randrange(arity)
    inner = rand_partition_preds(rng, arity)
    return [And(CoordConst(Cmp.LT, other, cut), p) for p in inner] + [
        And(CoordConst(Cmp.GE, other, cut), p) for p in inner]


def _rand_family(rng, arity):
    """A predicate family that partitions, overlaps, leaves gaps, or mixes
    boxed predicates with unboxed ones."""
    family = rand_partition_preds(rng, arity) if rng.random() < 0.5 else _stripes(rng, arity)
    roll = rng.random()
    if roll < 0.2:
        # overlap: a random predicate more, anywhere in the order
        family.insert(rng.randrange(len(family) + 1), rand_pred(rng, arity))
    elif roll < 0.4:
        # gap: one predicate fewer
        family.pop(rng.randrange(len(family)))
    elif roll < 0.6:
        # an unboxed predicate and its complement carve one member in two
        k = rng.randrange(len(family))
        split = rng.choice([rand_pred(rng, arity), ValueCmp(Cmp.LT, 0), Not(CoordConst(Cmp.EQ, 0, 0))]
                           + ([CoordCmp(Cmp.LE, 0, arity - 1)] if arity > 1 else []))
        family[k:k + 1] = [And(family[k], split), And(family[k], Not(split))]
    elif roll < 0.7:
        # a whole family of random predicates, mostly overlapping or gapped
        family = [rand_pred(rng, arity) for _ in range(rng.randint(1, 4))]
    return family


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_vertical_partition_matches_the_all_predicates_loop(seed):
    rng = random.Random(seed)
    kinds = {"fragments": 0, NotDisjoint: 0, NotExhaustive: 0}
    for _ in range(300):
        a = rand_array(rng, max_size=30)
        preds = _rand_family(rng, a.arity)
        want = _outcome(lambda: _all_predicates_partition(a, preds))
        got = _outcome(lambda: [f.array for f in partition_vertical(a, preds).fragments])
        assert got == want, (a, preds)
        kinds["fragments" if isinstance(want, list) else want[0]] += 1
    assert min(kinds.values()) > 30, kinds


def _undecided(rng, arity):
    """A predicate that no box decides: a ``!=``, value, ``or`` or ``not``
    leaf, or a coordinate comparison."""
    d = rng.randrange(arity)
    c = rng.randint(-6, 6)
    return rng.choice([
        CoordConst(Cmp.NE, d, c),
        ValueCmp(rng.choice(list(Cmp)), rng.randint(-50, 50)),
        Or(CoordConst(Cmp.LT, d, c), CoordConst(Cmp.GT, d, c + 2)),
        Not(CoordConst(Cmp.EQ, d, c)),
        CoordCmp(Cmp.LE, d, (d + 1) % arity),
    ])


def _mixed_family(rng, arity):
    """A grid of decided boxes over two dimensions, some members carved in
    two by an undecided predicate and its complement, then perhaps an
    overlapping member more or a member fewer."""
    d0, d1 = rng.sample(range(arity), 2)
    cuts = sorted(rng.sample(range(-8, 9), rng.randint(1, 3)))
    stripes = (
        [CoordConst(Cmp.LT, d0, cuts[0])]
        + [And(CoordConst(Cmp.GE, d0, lo), CoordConst(Cmp.LT, d0, hi))
           for lo, hi in zip(cuts, cuts[1:])]
        + [CoordConst(Cmp.GE, d0, cuts[-1])]
    )
    half = rng.randint(-4, 4)
    family = [And(p, CoordConst(Cmp.LT, d1, half)) for p in stripes] + [
        And(p, CoordConst(Cmp.GE, d1, half)) for p in stripes]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(family))
        split = _undecided(rng, arity)
        family[k:k + 1] = [And(family[k], split), And(family[k], Not(split))]
    roll = rng.random()
    if roll < 0.3:
        extra = And(CoordConst(Cmp.GE, d0, rng.randint(-8, 8)), _undecided(rng, arity))
        family.insert(rng.randrange(len(family) + 1), extra)
    elif roll < 0.6:
        family.pop(rng.randrange(len(family)))
    return family


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_vertical_cells_mix_decided_and_undecided_predicates(seed):
    rng = random.Random(seed)
    kinds = {"fragments": 0, NotDisjoint: 0, NotExhaustive: 0}
    for _ in range(300):
        a = rand_array(rng, arity=rng.randint(3, 5), max_size=30)
        preds = _mixed_family(rng, a.arity)
        want = _outcome(lambda: _all_predicates_partition(a, preds))
        got = _outcome(lambda: [f.array for f in partition_vertical(a, preds).fragments])
        assert got == want, (a, preds)
        kinds["fragments" if isinstance(want, list) else want[0]] += 1
    assert min(kinds.values()) > 30, kinds


def test_bench_shaped_split_tests_few_predicates(monkeypatch):
    # 20 stripes of dim0, each cut in two on dim1, over 1,600 associations
    # of a 200 x 100 grid: testing every predicate makes 64,000 evaluations
    texts = []
    for s in range(20):
        lo, hi = 10 * s, 10 * (s + 1)
        # the outer stripes are open-ended, as in the benchmark's inputs
        bounds = ([f"dim0 >= {lo}"] if s > 0 else []) + ([f"dim0 < {hi}"] if s < 19 else [])
        rows = " and ".join(bounds)
        texts += [f"{rows} and dim1 < 50", f"{rows} and dim1 >= 50"]
    preds = [parse_predicate(t) for t in texts]
    rng = random.Random(5)
    a = Array(2, (((k // 100, k % 100), k) for k in rng.sample(range(20_000), 1_600)))
    evaluations = 0

    def counting_compile(pred):
        test = compile_predicate(pred)

        def counted(index, value):
            nonlocal evaluations
            evaluations += 1
            return test(index, value)

        return counted

    monkeypatch.setattr(distribution, "compile_predicate", counting_compile)
    placement = partition_vertical(a, preds)
    # every cell lies in one box, which decides its predicate
    assert evaluations == 0
    assert [f.array for f in placement.fragments] == _all_predicates_partition(a, preds)


def _sorted_tuple_width(array):
    """The uniform tuple width, checked in canonical order."""
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


def _sorted_shape_check(placement):
    """The first value that does not fit its slice, fragment by fragment,
    each fragment in canonical order."""
    for fragment, positions in zip(placement.fragments, placement.scheme.slices):
        if len(positions) == 1:
            continue
        for index, value in fragment.array.items():
            if not isinstance(value, TupleV) or len(value.items) != len(positions):
                raise NotTupleValued(
                    f"fragment {fragment.fragment_id!r}: value at {index!r} "
                    f"is not a {len(positions)}-tuple"
                )


def _tamper(rng, array, at, width):
    """``array`` with a scalar, or a tuple of a width other than ``width``,
    at each index of ``at``."""
    assoc = dict(array.items())
    for index in at:
        if rng.random() < 0.5:
            assoc[index] = rand_scalar(rng)
        else:
            assoc[index] = tuple(range(rng.choice([w for w in range(1, 6) if w != width])))
    return Array(array.arity, assoc.items())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_horizontal_witnesses_match_the_sorted_loops(seed):
    rng = random.Random(seed)
    checked = {"partition": 0, "reassemble": 0, "two-fragments": 0}
    for _ in range(200):
        width = rng.randint(2, 5)
        t = rand_tuple_array(rng, rng.randint(1, 3), width, max_size=15)
        if len(t) < 2:
            continue
        support = sorted(t.support())
        # partition: a non-tuple or a width other than the lowest index's,
        # never at the lowest index itself
        bad = _tamper(rng, t, rng.sample(support[1:], rng.randint(1, min(3, len(support) - 1))), width)
        want = _outcome(lambda: _sorted_tuple_width(bad))
        assert _outcome(lambda: partition_horizontal(bad, [range(width)]).fragments) == want
        checked["partition"] += 1
        # reassemble: tampered values in one or two fragments of two or more slots
        # pairs of positions give two or more wide slices from width 4 up
        pairs = [range(p, min(p + 2, width)) for p in range(0, width, 2)]
        placement = partition_horizontal(t, pairs if rng.random() < 0.5 else rand_slices(rng, width))
        wide = [k for k, s in enumerate(placement.scheme.slices) if len(s) > 1]
        if not wide:
            continue
        tampered = placement
        targets = rng.sample(wide, min(len(wide), rng.randint(1, 2)))
        for k in targets:
            n = len(placement.scheme.slices[k])
            at = rng.sample(support, rng.randint(1, min(3, len(support))))
            tampered = _with_fragment(tampered, k, _tamper(rng, placement.fragments[k].array, at, n))
        want = _outcome(lambda: _sorted_shape_check(tampered))
        assert want[0] is NotTupleValued
        assert _outcome(lambda: reassemble(tampered)) == want
        checked["reassemble"] += 1
        checked["two-fragments"] += len(targets) == 2
    assert min(checked.values()) > 10, checked
