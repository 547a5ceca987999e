import pickle
import random
import sys

import pytest

from arrac import (
    UNDEF,
    Array,
    ArrayV,
    Cmp,
    CoordConst,
    FloatV,
    IntV,
    ItemCmp,
    StrV,
    TupleV,
    Undef,
    as_value,
    equi_join,
    join_condition,
    partition_horizontal,
    partition_vertical,
    push_select,
    to_python,
)
from arrac.core import show
from arrac.errors import (
    ArityMismatch,
    BadSlices,
    BadStep,
    ConsistencyViolation,
    NotPushable,
    PredicateArity,
)
from arrac.predicates import check_dims
from arrac.transforms import InsertDim, Permute, RemoveDim, Translate, apply_steps

from randgen import rand_array


def paper_matrix() -> Array:
    return Array(2, [((0, 0), "a"), ((0, 1), "b"), ((1, 0), "c"), ((1, 1), "d")])


def test_lookup_and_support():
    m = paper_matrix()
    assert m.arity == 2
    assert len(m) == 4
    assert m[(1, 1)] == StrV("d")
    assert m.get((5, 5)) is None
    assert m.support() == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_items_are_lexicographically_ordered():
    a = Array(2, [((2, 0), 1), ((0, 5), 2), ((0, 1), 3), ((-1, 9), 4)])
    assert [i for i, _ in a.items()] == [(-1, 9), (0, 1), (0, 5), (2, 0)]


def test_duplicate_index_same_value_is_merged():
    a = Array(1, [((0,), "x"), ((0,), "x")])
    assert len(a) == 1


def test_conflicting_duplicate_raises_with_witness():
    with pytest.raises(ConsistencyViolation) as err:
        Array(1, [((0,), "x"), ((0,), "y")])
    assert err.value.index == (0,)


def test_arity_is_checked_per_index():
    with pytest.raises(ArityMismatch):
        Array(2, [((0,), "x")])
    with pytest.raises(ArityMismatch):
        paper_matrix().get((0,))
    with pytest.raises(ArityMismatch, match=r"^index must be a tuple of ints, got \[0\]$"):
        Array(1, [([0], 1)])
    with pytest.raises(ArityMismatch, match=r"^index \(0\.5,\) has a non-integer coordinate$"):
        Array(1, [((0.5,), 1)])
    with pytest.raises(ValueError):
        Array(0)


def test_undef_is_stored_not_absent():
    a = Array(1, [((0,), None)])
    assert a.get((0,)) is UNDEF
    assert (0,) in a
    assert (1,) not in a
    # absence still reads as None through get
    assert a.get((1,)) is None


def test_undef_is_a_singleton():
    assert Undef() is UNDEF
    assert as_value(None) is UNDEF


def test_value_coercion_round_trip():
    cases = [3, -7, 2.5, "hi", None, (1, "a", None), (1, (2, 3))]
    for obj in cases:
        assert to_python(as_value(obj)) == obj
    inner = Array(1, [((0,), 1)])
    assert to_python(as_value(inner)) == inner


def test_bool_coerces_to_int_value():
    assert as_value(True) == IntV(1)


def test_float_equality_is_bitwise():
    assert FloatV(0.0) != FloatV(-0.0)
    assert FloatV(1.5) == FloatV(1.5)
    assert hash(FloatV(2.5)) == hash(FloatV(2.5))
    # a containing array therefore distinguishes the two zeros
    with pytest.raises(ConsistencyViolation):
        Array(1, [((0,), 0.0), ((0,), -0.0)])


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        FloatV(float("nan"))
    with pytest.raises(ValueError):
        Array(1, [((0,), float("nan"))])


def test_tuple_value_needs_items():
    with pytest.raises(ValueError):
        TupleV(())
    t = TupleV((IntV(1), StrV("a")))
    assert len(t) == 2


def test_trusted_tuple_constructor_builds_what_the_checked_one_does():
    items = (IntV(1), StrV("a"), UNDEF, TupleV((FloatV(-0.0),)))
    fast, checked = TupleV._of(items), TupleV(items)
    assert type(fast) is TupleV and fast.items is items
    assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)
    assert pickle.loads(pickle.dumps(fast)) == checked
    with pytest.raises(AttributeError, match="cannot assign to field 'items'"):
        fast.items = (IntV(2),)
    assert fast.items is items


def test_nested_array_values():
    inner = Array(1, [((0,), "deep")])
    outer = Array(1, [((0,), inner)])
    v = outer[(0,)]
    assert isinstance(v, ArrayV)
    assert v.array[(0,)] == StrV("deep")


def test_arrays_hash_and_compare_structurally():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_array(rng)
        b = Array(a.arity, list(reversed(list(a.items()))))
        assert a == b
        assert hash(a) == hash(b)


def test_empty_array_of_any_arity():
    for arity in range(1, 5):
        a = Array(arity)
        assert len(a) == 0
        assert a.support() == frozenset()


def test_package_resolves_every_exported_name():
    import arrac

    for name in arrac.__all__:
        assert getattr(arrac, name) is not None, name
    assert set(arrac.__all__) <= set(dir(arrac))
    with pytest.raises(AttributeError):
        arrac.no_such_name


def test_show_is_repr_within_the_digit_limit_and_shortens_past_it():
    big = 10 ** sys.get_int_max_str_digits() + 123
    for item in [(0,), (1, -2), 7, (2**64, 3)]:
        assert show(item) == repr(item)
    tail = f"<more than {sys.get_int_max_str_digits()} digits ...000123>"
    assert show(big) == tail
    assert show(-big) == "-" + tail
    assert show((big,)) == f"({tail},)"
    assert show((1, -big)) == f"(1, -{tail})"


def test_show_names_any_other_object_past_the_digit_limit_by_its_type():
    big = 10 ** sys.get_int_max_str_digits()
    assert show(IntV(big)) == "<IntV>"
    assert show((0, CoordConst(Cmp.EQ, 0, big))) == "(0, <CoordConst>)"
    assert show(IntV(7)) == repr(IntV(7))


HUGE = 10**5000  # past the digits str() converts
PAIRS = Array(2, [((0, 0), (1, 2))])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: equi_join(PAIRS, PAIRS, [(0, HUGE)]), PredicateArity),
        (lambda: partition_horizontal(PAIRS, [[0], [1, HUGE]]), BadSlices),
        (lambda: check_dims(CoordConst(Cmp.EQ, HUGE, 0), 1), PredicateArity),
        (lambda: apply_steps(PAIRS, [InsertDim(HUGE, 0)]), BadStep),
        (lambda: apply_steps(PAIRS, [RemoveDim(HUGE)]), BadStep),
        (lambda: apply_steps(PAIRS, [Translate(HUGE, 1)]), BadStep),
        (lambda: apply_steps(PAIRS, [Permute((HUGE,))]), BadStep),
        (lambda: partition_vertical(PAIRS, [CoordConst(Cmp.EQ, HUGE, 0)]), PredicateArity),
        (lambda: push_select(partition_horizontal(Array(1, [((0,), (1, 2))]), [[0], [1]]),
                             ItemCmp(Cmp.EQ, HUGE, 1)), NotPushable),
    ],
    ids=["join-dimension", "slice-position", "check-dims", "insert-position",
         "remove-position", "translate-dimension", "permutation", "vpartition-dimension",
         "push-select-position"],
)
def test_a_huge_int_in_a_message_is_shown_shortened(call, error):
    with pytest.raises(error, match=f"<more than {sys.get_int_max_str_digits()} digits"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: equi_join(PAIRS, PAIRS, CoordConst(Cmp.EQ, 0, HUGE)), PredicateArity,
         "join pairs <CoordConst> are not a list of pairs"),
        (lambda: equi_join(PAIRS, PAIRS, [IntV(HUGE)]), PredicateArity,
         "join pair <IntV> is not a pair of dimensions"),
        (lambda: partition_horizontal(PAIRS, CoordConst(Cmp.EQ, 0, HUGE)), BadSlices,
         "slices <CoordConst> are not a list of slices"),
        (lambda: partition_horizontal(PAIRS, [IntV(HUGE)]), BadSlices,
         "slice 0 is <IntV>, not a list of positions"),
        (lambda: equi_join(PAIRS, PAIRS, [(IntV(HUGE), 0)]), PredicateArity,
         "join dimension <IntV> is not an integer"),
        (lambda: partition_horizontal(PAIRS, [[IntV(HUGE)]]), BadSlices,
         "position <IntV> in slice 0 is not an integer"),
        (lambda: join_condition(PAIRS, CoordConst(Cmp.EQ, 0, HUGE)), PredicateArity,
         "join pairs <CoordConst> are not a list of pairs"),
    ],
    ids=["join-pairs", "join-pair", "slices", "slice", "join-dimension", "slice-position",
         "join-condition-pairs"],
)
def test_a_record_that_holds_a_huge_int_is_named_by_its_type(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
