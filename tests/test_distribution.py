import functools
import random

import pytest

from arrac import (
    Array,
    Cmp,
    CoordConst,
    Fragment,
    HorizontalSplit,
    ItemCmp,
    Not,
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
)

from arrac.predicates import holds
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


def test_single_fragment_scheme():
    a = Array(1, [((0,), "x")])
    placement = partition_vertical(a, [TRUE])
    assert len(placement.fragments) == 1
    assert reassemble(placement) == a


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
