import random

import pytest

from arrac import Array, transform, invert
from arrac.core import show
from arrac.errors import BadStep, NotInjective, NotInvertible
from arrac.transforms import (
    Compact,
    InsertDim,
    InsertFromTable,
    Permute,
    RemapDim,
    RemoveDim,
    Translate,
    _step,
    apply_steps,
    record_steps,
)

from randgen import rand_array, rand_steps


def grid(*indexes):
    return Array(len(indexes[0]), [(i, k) for k, i in enumerate(indexes)])


def test_permute_swaps_coordinates():
    a = grid((1, 2), (3, 4))
    out = transform(a, [Permute((1, 0))])
    assert out.support() == {(2, 1), (4, 3)}
    assert out[(2, 1)] == a[(1, 2)]


def test_translate_shifts_one_dim():
    a = grid((0,), (5,))
    out = transform(a, [Translate(0, -2)])
    assert out.support() == {(-2,), (3,)}


def test_insert_and_remove_dim():
    a = grid((1,), (2,))
    up = transform(a, [InsertDim(0, 7)])
    assert up.arity == 2
    assert up.support() == {(7, 1), (7, 2)}
    down = transform(up, [RemoveDim(0)])
    assert down == a


def test_remove_dim_requires_injectivity():
    a = grid((0, 0), (0, 1))
    with pytest.raises(NotInjective) as err:
        transform(a, [RemoveDim(1)])
    assert err.value.collided is not None


def test_remove_dim_cannot_reach_arity_zero():
    a = grid((0,))
    with pytest.raises(BadStep):
        transform(a, [RemoveDim(0)])


def test_compact_is_order_preserving():
    a = Array(1, [((4,), "x"), ((-3,), "y"), ((9,), "z")])
    out = transform(a, [Compact(0)])
    assert [i for i, _ in out.items()] == [(0,), (1,), (2,)]
    assert out[(0,)] == a[(-3,)]
    assert out[(2,)] == a[(9,)]


def test_step_validation():
    with pytest.raises(BadStep):
        _step(Permute((0, 0)), 2, ())
    with pytest.raises(BadStep):
        _step(Permute((0,)), 2, ())
    with pytest.raises(BadStep):
        _step(Translate(3, 1), 2, ())
    with pytest.raises(BadStep):
        _step(InsertDim(4, 0), 2, ())
    assert _step(InsertDim(2, 0), 2, ())[0] == 3
    assert _step(RemoveDim(1), 3, ())[0] == 2


@pytest.mark.parametrize(
    "step",
    [Translate(0, 1.0), Translate(0, True), InsertDim(0, 1.5), InsertDim(0, True),
     RemapDim(0, ((0, 10), (1, 2.0))), InsertFromTable(1, (((0,), 9), ((1,), False)))],
    ids=["translate-float", "translate-bool", "insert-float", "insert-bool",
         "remap-float", "table-bool"],
)
def test_step_constants_must_be_ints(step):
    # engine results are not rechecked, so a step must not write a float or
    # a bool into an index; empty arrays are refused the same way
    for a in (grid((0,), (1,)), Array(1)):
        with pytest.raises(BadStep, match="is not an int"):
            transform(a, [step])


def test_remap_dim_table_must_cover_support():
    a = grid((0,), (1,))
    out = transform(a, [RemapDim(0, ((0, 10), (1, 20)))])
    assert out.support() == {(10,), (20,)}
    with pytest.raises(BadStep):
        transform(a, [RemapDim(0, ((0, 10),))])


def test_remap_dim_detects_collapse():
    a = grid((0,), (1,))
    with pytest.raises(NotInjective):
        transform(a, [RemapDim(0, ((0, 5), (1, 5)))])


def test_insert_from_table():
    a = grid((0,), (1,))
    out = transform(a, [InsertFromTable(1, (((0,), 9), ((1,), 8)))])
    assert out.support() == {(0, 9), (1, 8)}


def test_cardinality_is_preserved():
    rng = random.Random(17)
    for _ in range(200):
        a = rand_array(rng)
        steps = rand_steps(rng, a.arity)
        try:
            out = apply_steps(a, steps)
        except NotInjective:
            continue
        assert len(out) == len(a)


def test_record_then_invert_round_trips():
    rng = random.Random(19)
    done = 0
    while done < 200:
        a = rand_array(rng)
        steps = rand_steps(rng, a.arity)
        try:
            recorded = record_steps(a, steps)
        except NotInjective:
            continue
        out = apply_steps(a, recorded)
        back = apply_steps(out, invert(recorded, out.support()))
        assert back == a
        done += 1


def test_unrecorded_remove_dim_is_not_invertible():
    a = grid((0, 1), (2, 3))
    out = transform(a, [RemoveDim(0)])
    with pytest.raises(NotInvertible):
        invert([RemoveDim(0)], out.support())


def test_unrecorded_compact_is_not_invertible():
    a = grid((5,), (9,))
    out = transform(a, [Compact(0)])
    with pytest.raises(NotInvertible):
        invert([Compact(0)], out.support())


def test_recorded_steps_equal_plain_steps():
    # enrichment is an annotation, not a different operation
    a = grid((0, 1), (2, 3))
    recorded = record_steps(a, [RemoveDim(0), Compact(0)])
    assert recorded == [RemoveDim(0), Compact(0)]
    assert recorded[0].recorded is not None


def test_identity_on_empty_arrays():
    a = Array(3)
    steps = record_steps(a, [Permute((2, 0, 1)), RemoveDim(1)])
    out = apply_steps(a, steps)
    assert out.arity == 2 and len(out) == 0
    assert apply_steps(out, invert(steps, out.support())) == a


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_record_steps_fails_as_apply_steps_does(seed):
    # record_steps replays in the canonical order, so a collision names the
    # same two indices that apply_steps names
    rng = random.Random(seed)
    failures = 0
    for _ in range(2000):
        a = rand_array(rng)
        steps = rand_steps(rng, a.arity)
        try:
            apply_steps(a, steps)
        except Exception as exc:
            failures += 1
            with pytest.raises(type(exc)) as err:
                record_steps(a, steps)
            assert str(err.value) == str(exc)
    assert failures > 100


@pytest.mark.parametrize(
    "step, message",
    [
        (Translate(5, 1), "translate dimension 5 out of range for arity 2"),
        (Permute((0,)), "permutation (0,) is not a permutation of 0..1"),
        (InsertDim(7, 0), "remove position 7 out of range for arity 2"),
        (Permute((0, 0)), "permutation (0, 0) is not a permutation of 0..1"),
        (Permute((0, 5)), "permutation (0, 5) is not a permutation of 0..1"),
    ],
    ids=["translate-out-of-range", "permute-too-short", "insert-past-the-end",
         "permute-repeats-a-dimension", "permute-out-of-range"],
)
def test_invert_refuses_a_step_that_does_not_fit_the_support(step, message):
    with pytest.raises(NotInvertible) as err:
        invert([step], {(1, 2)})
    assert str(err.value) == message


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_the_inverse_of_an_inverse_is_the_transformation(seed):
    # the inverse holds InsertFromTable, RemapDim and recorded RemoveDim
    # steps, whose own inverses are RemoveDim, the flipped RemapDim and
    # InsertFromTable: it inverts again without record_steps, and so do
    # steps with no RemoveDim or Compact, InsertDim included
    rng = random.Random(seed)
    done = unrecorded = 0
    while done < 200:
        a = rand_array(rng)
        steps = rand_steps(rng, a.arity)
        try:
            out = apply_steps(a, steps)
        except NotInjective:
            continue
        inv = invert(record_steps(a, steps), out.support())
        inv2 = invert(inv, a.support())
        assert apply_steps(out, inv) == a
        assert apply_steps(a, inv2) == out
        if not any(isinstance(s, (RemoveDim, Compact)) for s in steps):
            inv = invert(steps, out.support())
            assert apply_steps(a, invert(inv, a.support())) == out
            unrecorded += 1
        done += 1
    assert unrecorded > 20


def test_the_inverse_of_an_insert_dim_inverts_without_record_steps():
    a = grid((1, 2), (3, 4))
    steps = [InsertDim(1, 7), Translate(0, 2)]
    out = apply_steps(a, steps)
    inv = invert(steps, out.support())
    assert inv == [Translate(0, -2), RemoveDim(1)]
    assert inv[1].recorded == (((1, 2), 7), ((3, 4), 7))
    assert apply_steps(out, inv) == a
    again = invert(inv, a.support())
    assert again == [InsertFromTable(1, (((1, 2), 7), ((3, 4), 7))), Translate(0, 2)]
    assert apply_steps(a, again) == out


def test_invert_refuses_a_recorded_table_that_does_not_cover_the_support():
    with pytest.raises(NotInvertible) as err:
        invert([RemoveDim(0, recorded=(((5,), 1),))], {(5,), (7,)})
    assert str(err.value) == "recorded table does not cover index (7,)"


def test_invert_refuses_an_inverse_that_collapses_the_support():
    # InsertDim(0, 0) cannot have made an index that holds 1 at position 0;
    # the inverse names it instead of dropping dimension 0, which these two
    # indices differ in alone
    with pytest.raises(NotInvertible) as err:
        invert([InsertDim(0, 0)], {(0, 1), (1, 1)})
    assert str(err.value) == "index (1, 1) does not hold 0 at position 0"


def test_invert_refuses_a_recorded_table_that_collapses_the_support():
    # the inverse of this InsertFromTable drops dimension 0, which the two
    # indices differ in alone
    with pytest.raises(NotInvertible) as err:
        invert([InsertFromTable(0, [((1,), 0)])], {(0, 1), (1, 1)})
    assert str(err.value) == "recorded table collapses two indices"


def test_invert_refuses_a_remap_table_that_is_not_injective():
    with pytest.raises(NotInvertible) as err:
        invert([RemapDim(0, ((0, 1), (2, 1)))], {(1,)})
    assert str(err.value) == "remap table is not injective"


# --- the witness of a failing transformation -----------------------------------


def _canonical_apply(array, steps):
    """Each step's index map over the support in canonical order, naming the
    first index that fails."""
    arity, pairs = array.arity, dict(array.items())
    for step in steps:
        arity, f = _step(step, arity, pairs)
        out, sources = {}, {}
        for i, v in pairs.items():
            j = f(i)
            if j in out:
                raise NotInjective(
                    f"indices {show(sources[j])} and {show(i)} collapse to {show(j)}",
                    collided=(sources[j], i),
                )
            out[j], sources[j] = v, i
        pairs = out
    return Array(arity, pairs.items())


def _transform_outcome(call):
    """What a call gives back, or its error class, message and collided pair."""
    try:
        return call()
    except (BadStep, NotInjective) as exc:
        return type(exc), str(exc), getattr(exc, "collided", None)


def _rand_failing_spec(rng, array):
    """Random steps, then perhaps a table that misses part of the support
    the steps leave, or a RemoveDim that may collapse it."""
    steps = rand_steps(rng, array.arity, max_steps=2)
    try:
        out = _canonical_apply(array, steps)
    except NotInjective:
        return steps
    roll = rng.random()
    if roll < 0.3:
        d = rng.randrange(out.arity)
        coords = sorted({i[d] for i in out.support()})
        kept = rng.sample(coords, rng.randint(0, len(coords))) if coords else []
        steps.append(RemapDim(d, [(c, rng.randint(-9, 9)) for c in kept]))
    elif roll < 0.6:
        support = sorted(out.support())
        kept = rng.sample(support, rng.randint(0, len(support)))
        steps.append(InsertFromTable(rng.randint(0, out.arity), [(i, rng.randint(-3, 3)) for i in kept]))
    elif out.arity > 1:
        steps.append(RemoveDim(rng.randrange(out.arity)))
    return steps


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_transform_fails_as_the_canonical_order_loop_does(seed):
    # apply_steps maps the support in stored order and replays only a failing
    # spec, which must name the witness the canonical order names; record_steps
    # replays in canonical order through the same mover
    rng = random.Random(seed)
    kinds = {"result": 0, BadStep: 0, NotInjective: 0}
    for _ in range(400):
        a = rand_array(rng, max_size=14)
        steps = _rand_failing_spec(rng, a)
        want = _transform_outcome(lambda: _canonical_apply(a, steps))
        assert _transform_outcome(lambda: apply_steps(a, steps)) == want, (a, steps)
        recorded = _transform_outcome(lambda: record_steps(a, steps))
        if isinstance(want, Array):
            assert apply_steps(a, recorded) == want, (a, steps)
        else:
            assert recorded == want, (a, steps)
        kinds["result" if isinstance(want, Array) else want[0]] += 1
    assert min(kinds.values()) > 30, kinds


def test_a_missing_table_entry_is_named_in_canonical_order():
    # stored order reaches coordinate 5 first; canonical order reaches 3
    a = Array(2, [((5, 0), 1), ((1, 1), 2), ((3, 0), 3), ((1, 0), 4)])
    with pytest.raises(BadStep, match="^no table entry for coordinate 3 on dimension 0$"):
        apply_steps(a, [RemapDim(0, [(1, 10)])])
