import random

import pytest

from arrac import (
    Array,
    ArrayV,
    Cmp,
    CoordConst,
    FloatV,
    InsertDim,
    IntV,
    Permute,
    StrV,
    TupleV,
    Undef,
    ValueCmp,
    anti_join,
    cross,
    equi_join,
    join_condition,
    partition_horizontal,
    partition_vertical,
    project,
    push_select,
    reassemble,
    select,
    semi_join,
    transform,
    union,
)
from arrac.errors import ArityMismatch, ConsistencyViolation, PredicateArity

from randgen import rand_array, rand_partition_preds, rand_pred, rand_slices, rand_tuple_array


def paper_matrix() -> Array:
    return Array(2, [((0, 0), "a"), ((0, 1), "b"), ((1, 0), "c"), ((1, 1), "d")])


# --- project / select -------------------------------------------------------


def test_project_keeps_listed_indexes():
    m = paper_matrix()
    out = project(m, {(0, 0), (1, 0)})
    assert out == Array(2, [((0, 0), "a"), ((1, 0), "c")])


def test_project_ignores_indexes_outside_support():
    m = paper_matrix()
    assert project(m, {(0, 0), (9, 9)}) == Array(2, [((0, 0), "a")])
    assert project(m, set()) == Array(2)


def test_project_refuses_anything_but_a_collection_of_indexes():
    # a condition is select's to apply; project names what it got by its type,
    # since a record that holds a huge int has no repr
    m = paper_matrix()
    for pred, name in [
        (CoordConst(Cmp.EQ, 1, 0), "CoordConst"),
        (ValueCmp(Cmp.EQ, "a"), "ValueCmp"),
        (CoordConst(Cmp.EQ, 0, 10**5000), "CoordConst"),
        ((i for i in m.support()), "generator"),
        (None, "NoneType"),
    ]:
        message = f"^project takes a collection of index tuples, not a {name}$"
        with pytest.raises(ArityMismatch, match=message):
            project(m, pred)


def test_project_is_idempotent():
    rng = random.Random(23)
    for _ in range(100):
        a = rand_array(rng)
        keep = set(rng.sample(sorted(a.support()), k=min(len(a), 3))) if len(a) else set()
        once = project(a, keep)
        assert project(once, keep) == once


def test_select_by_value():
    m = paper_matrix()
    assert select(m, ValueCmp(Cmp.EQ, "b")) == Array(2, [((0, 1), "b")])


def test_select_rejects_out_of_range_dims():
    with pytest.raises(PredicateArity):
        select(paper_matrix(), CoordConst(Cmp.EQ, 5, 0))


def test_select_conjunction_equals_nested_selects():
    from arrac import And

    rng = random.Random(29)
    for _ in range(100):
        a = rand_array(rng)
        p = rand_pred(rng, a.arity)
        q = rand_pred(rng, a.arity)
        both = select(a, And(p, q))
        assert both == select(select(a, p), q)
        assert both == select(select(a, q), p)


# --- cross -------------------------------------------------------------


def test_cross_pairs_indices_and_values():
    a = Array(1, [((0,), "x")])
    b = Array(2, [((1, 2), 5)])
    out = cross(a, b)
    assert out.arity == 3
    # the value is exactly the (left, right) pair
    assert out[(0, 1, 2)] == TupleV((StrV("x"), b[(1, 2)]))


def test_cross_cardinality_is_product():
    rng = random.Random(31)
    for _ in range(100):
        a = rand_array(rng, max_size=6)
        b = rand_array(rng, max_size=6)
        out = cross(a, b)
        assert len(out) == len(a) * len(b)
        assert out.arity == a.arity + b.arity


# --- union -------------------------------------------------------------


def test_union_merges_disjoint_and_overlapping_consistent():
    a = Array(1, [((0,), "x"), ((1,), "y")])
    b = Array(1, [((1,), "y"), ((2,), "z")])
    assert union(a, b) == Array(1, [((0,), "x"), ((1,), "y"), ((2,), "z")])


def test_union_conflict_names_witness():
    a = Array(1, [((3,), "x")])
    b = Array(1, [((3,), "y")])
    with pytest.raises(ConsistencyViolation) as err:
        union(a, b)
    assert err.value.index == (3,)


def test_union_arity_mismatch():
    with pytest.raises(ArityMismatch):
        union(Array(1), Array(2))


def test_union_laws_on_conflict_free_inputs():
    rng = random.Random(37)
    for _ in range(100):
        base = rand_array(rng)
        support = sorted(base.support())
        rng.shuffle(support)
        cut = len(support) // 2
        a = project(base, set(support[:cut]) | set(support[cut : cut + 1]))
        b = project(base, set(support[cut:]))
        assert union(a, a) == a
        assert union(a, b) == union(b, a)
        c = project(base, set(support[::2]))
        assert union(union(a, b), c) == union(a, union(b, c))


# --- joins ---------------------------------------------------------------


def oracle_equi_join(a: Array, b: Array, on) -> Array:
    """Brute force: filter the full cross product pair by pair."""
    pairs = []
    for i, d in a.items():
        for j, e in b.items():
            if all(i[da] == j[db] for da, db in on):
                pairs.append((i + j, TupleV((d, e))))
    return Array(a.arity + b.arity, pairs)


def oracle_semi_join(a: Array, b: Array, on) -> Array:
    keep = [
        i
        for i, _ in a.items()
        if any(all(i[da] == j[db] for da, db in on) for j in b.support())
    ]
    return project(a, set(keep))


def test_equi_join_equals_selected_cross():
    rng = random.Random(41)
    for _ in range(100):
        a = rand_array(rng, max_size=6)
        b = rand_array(rng, max_size=6)
        npairs = rng.randint(0, min(a.arity, b.arity))
        on = [(rng.randrange(a.arity), rng.randrange(b.arity)) for _ in range(npairs)]
        fast = equi_join(a, b, on)
        assert fast == select(cross(a, b), join_condition(a, on))
        assert fast == oracle_equi_join(a, b, set(on))


def rand_on(rng: random.Random, a: Array, b: Array) -> list:
    """0-3 join pairs: each after the first may repeat an earlier pair or
    name an earlier pair's left or right dimension again."""
    on = []
    for _ in range(rng.randint(0, 3)):
        da, db = rng.randrange(a.arity), rng.randrange(b.arity)
        roll = rng.random()
        if on and roll < 0.25:
            da, db = rng.choice(on)
        elif on and roll < 0.5:
            da = rng.choice(on)[0]
        elif on and roll < 0.75:
            db = rng.choice(on)[1]
        on.append((da, db))
    return on


def test_semi_and_anti_join_partition_the_left_operand():
    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        a = rand_array(rng, max_size=8)
        b = rand_array(rng, max_size=8)
        on = rand_on(rng, a, b)
        semi = semi_join(a, b, on)
        anti = anti_join(a, b, on)
        assert semi == oracle_semi_join(a, b, on)
        assert union(semi, anti) == a
        assert project(semi, anti.support()) == Array(a.arity)
        seen.add(min(len(on), 2))  # none, one coordinate, a tuple key
        seen.add("repeated" if len(set(on)) < len(on) else None)
        seen.add("named twice" if len({da for da, _ in set(on)}) < len(set(on)) else None)
    assert seen >= {0, 1, 2, "repeated", "named twice"}, seen


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equi_join_on_crowded_buckets_equals_selected_cross(seed):
    # a span of 2 puts several right indices in most buckets
    rng = random.Random(seed)
    crowded = 0
    for _ in range(200):
        a = rand_array(rng, max_size=8, span=2)
        b = rand_array(rng, max_size=8, span=2)
        on = rand_on(rng, a, b)
        fast = equi_join(a, b, on)
        assert fast == select(cross(a, b), join_condition(a, on))
        assert fast == oracle_equi_join(a, b, set(on))
        keys = {tuple(j[db] for _, db in on) for j in b.support()}
        crowded += on != [] and len(keys) < len(b) and len(fast) > 0
    assert crowded > 20, crowded


def test_join_on_empty_on_list_is_cross_like():
    a = Array(1, [((0,), 1), ((1,), 2)])
    b = Array(1, [((5,), 3)])
    assert equi_join(a, b, []) == cross(a, b)
    assert semi_join(a, b, []) == a  # b nonempty: every left row survives
    assert semi_join(a, Array(1), []) == Array(1)
    assert anti_join(a, Array(1), []) == a


def test_join_validates_dimensions():
    with pytest.raises(PredicateArity):
        equi_join(Array(1), Array(1), [(0, 5)])


def join_condition_of(a, b, on):
    """``join_condition`` in a join's signature: it checks ``on`` as the joins do."""
    return join_condition(a, on)


@pytest.mark.parametrize("dim", [0.0, 0.7, True, "0"], ids=["zero-float", "float", "bool", "str"])
@pytest.mark.parametrize("join", [equi_join, semi_join, anti_join, join_condition_of])
def test_join_dimensions_must_be_integers(join, dim):
    a = Array(1, [((0,), 1), ((1,), 2)])
    for on in ([(dim, 0)], [(0, dim)]):
        with pytest.raises(PredicateArity) as err:
            join(a, a, on)
        assert str(err.value) == f"join dimension {dim!r} is not an integer"


@pytest.mark.parametrize(
    "on, message",
    [
        (5, "join pairs 5 are not a list of pairs"),
        ([0], "join pair 0 is not a pair of dimensions"),
        ([(0,)], "join pair (0,) is not a pair of dimensions"),
        ([(0, 0), (0, 0, 0)], "join pair (0, 0, 0) is not a pair of dimensions"),
        ([(0, 0), None], "join pair None is not a pair of dimensions"),
    ],
    ids=["int", "int-pair", "one-item", "three-items", "none"],
)
@pytest.mark.parametrize("join", [equi_join, semi_join, anti_join, join_condition_of])
def test_malformed_join_pairs_are_refused(join, on, message):
    a = Array(1, [((0,), 1), ((1,), 2)])
    with pytest.raises(PredicateArity) as err:
        join(a, a, on)
    assert str(err.value) == message


def test_paper_shaped_composition():
    # joining a 2-d array with a 1-d array along one shared coordinate
    measurements = Array(
        2, [((0, 10), 1.5), ((0, 11), 1.75), ((1, 10), 2.5)]
    )
    detectors = Array(1, [((0,), "north"), ((1,), "south")])
    joined = equi_join(measurements, detectors, [(0, 0)])
    assert joined.arity == 3
    assert len(joined) == 3
    i = (0, 10, 0)
    assert joined[i].items[1] == StrV("north")
    # index composition works the same through every on-pair order
    assert joined == equi_join(measurements, detectors, [(0, 0), (0, 0)])


# --- trusted construction -----------------------------------------------------

_VALUE_TYPES = (IntV, FloatV, StrV, Undef, TupleV, ArrayV)


def _assert_built_right(result):
    """``result`` passes every check the public constructor makes."""
    assert result == Array(result.arity, result.items())
    stack = [v for _, v in result.items()]
    while stack:
        v = stack.pop()
        assert isinstance(v, _VALUE_TYPES), v
        if isinstance(v, TupleV):
            assert isinstance(v.items, tuple) and v.items
            stack.extend(v.items)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_operator_results_equal_their_public_rebuild(seed):
    rng = random.Random(seed)
    for _ in range(60):
        a = rand_array(rng, max_size=8)
        b = rand_array(rng, max_size=6)
        other = rand_array(rng, arity=a.arity, max_size=6)
        other = project(other, other.support() - a.support())
        on = [(rng.randrange(a.arity), rng.randrange(b.arity)) for _ in range(rng.randint(0, 2))]
        results = [
            project(a, list(a.support())[:3]),
            select(a, rand_pred(rng, a.arity)),
            cross(a, b),
            union(a, other),
            equi_join(a, b, on),
            semi_join(a, b, on),
            anti_join(a, b, on),
            transform(a, [Permute(tuple(reversed(range(a.arity)))), InsertDim(0, 7)]),
        ]
        vertical = partition_vertical(a, rand_partition_preds(rng, a.arity))
        results += [f.array for f in vertical.fragments] + [reassemble(vertical)]
        width = rng.randint(1, 4)
        t = rand_tuple_array(rng, rng.randint(1, 3), width)
        horizontal = partition_horizontal(t, rand_slices(rng, width))
        pushed = push_select(horizontal, CoordConst(Cmp.GE, 0, 0))
        results += [f.array for f in horizontal.fragments]
        results += [reassemble(horizontal), reassemble(pushed)]
        for result in results:
            _assert_built_right(result)
