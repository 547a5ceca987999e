import ast
import math
import random
from pathlib import Path

import pytest

from arrac import (
    FALSE,
    TRUE,
    And,
    Cmp,
    CoordCmp,
    CoordConst,
    FloatV,
    IntV,
    ItemCmp,
    Not,
    Or,
    StrV,
    TupleV,
    UNDEF,
    ValueCmp,
    as_value,
    holds,
)
from arrac.errors import PredicateArity
from arrac.predicates import (
    _box_residual,
    check_dims,
    children,
    compile_predicate,
    leaves,
    referenced_positions,
)

from randgen import rand_array, rand_pred, rand_value


IDX = (2, 5)


def test_value_comparison():
    assert holds(ValueCmp(Cmp.EQ, "b"), IDX, as_value("b"))
    assert not holds(ValueCmp(Cmp.EQ, "b"), IDX, as_value("c"))
    assert holds(ValueCmp(Cmp.LT, 10), IDX, as_value(3))
    assert holds(ValueCmp(Cmp.NE, 10), IDX, UNDEF)


def test_ordered_comparison_stays_within_one_tag():
    # 3 < "x" is not an ordering question we answer; it is just False
    assert not holds(ValueCmp(Cmp.LT, "x"), IDX, as_value(3))
    assert not holds(ValueCmp(Cmp.GE, 1), IDX, as_value("zzz"))
    assert not holds(ValueCmp(Cmp.LT, 5.0), IDX, as_value(3))  # int vs float tags


def test_item_comparison():
    v = as_value((7, "mid", 1.5))
    assert holds(ItemCmp(Cmp.EQ, 1, "mid"), IDX, v)
    assert holds(ItemCmp(Cmp.GT, 0, 5), IDX, v)
    assert not holds(ItemCmp(Cmp.EQ, 9, "mid"), IDX, v)  # out of range
    assert not holds(ItemCmp(Cmp.EQ, 0, 7), IDX, as_value(7))  # not a tuple


def test_coordinate_comparisons():
    assert holds(CoordCmp(Cmp.LT, 0, 1), IDX, UNDEF)
    assert not holds(CoordCmp(Cmp.EQ, 0, 1), IDX, UNDEF)
    assert holds(CoordConst(Cmp.EQ, 1, 5), IDX, UNDEF)
    assert holds(CoordConst(Cmp.NE, 0, 3), IDX, UNDEF)


def test_boolean_connectives():
    p = And(CoordConst(Cmp.GE, 0, 0), CoordConst(Cmp.LE, 0, 9))
    assert holds(p, IDX, UNDEF)
    q = Or(CoordConst(Cmp.EQ, 0, 99), Not(FALSE))
    assert holds(q, IDX, UNDEF)
    assert holds(TRUE, IDX, UNDEF)
    assert not holds(FALSE, IDX, UNDEF)


def test_connectives_need_two_children():
    with pytest.raises(ValueError):
        And(TRUE)
    with pytest.raises(ValueError):
        Or(FALSE)


def test_check_dims():
    check_dims(CoordConst(Cmp.EQ, 1, 0), 2)
    with pytest.raises(PredicateArity):
        check_dims(CoordConst(Cmp.EQ, 2, 0), 2)
    with pytest.raises(PredicateArity):
        check_dims(And(TRUE, CoordCmp(Cmp.EQ, 0, 5)), 3)
    with pytest.raises(PredicateArity):
        check_dims(CoordConst(Cmp.EQ, -1, 0), 2)


def test_holds_refuses_a_dimension_the_index_lacks():
    # neither an IndexError nor a read from the end of the index
    with pytest.raises(PredicateArity, match="^predicate references dimension 5 of a 2-d array$"):
        holds(CoordConst(Cmp.EQ, 5, 0), (1, 2), UNDEF)
    with pytest.raises(PredicateArity, match="^predicate references dimension -1 of a 2-d array$"):
        holds(CoordConst(Cmp.EQ, -1, 0), (1, 0), UNDEF)


def test_reference_introspection():
    p = And(CoordConst(Cmp.EQ, 1, 0), Not(ItemCmp(Cmp.EQ, 2, "x")))
    check_dims(p, 2)
    with pytest.raises(PredicateArity, match="^predicate references dimension 1 of a 1-d array$"):
        check_dims(p, 1)
    assert referenced_positions(p) == {2}
    assert referenced_positions(ValueCmp(Cmp.EQ, 1)) == frozenset()


def test_holds_is_total_on_random_inputs():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_array(rng)
        p = rand_pred(rng, a.arity)
        for i, v in a.items():
            assert holds(p, i, v) in (True, False)


def test_de_morgan_on_random_predicates():
    rng = random.Random(13)
    for _ in range(200):
        a = rand_array(rng, max_size=8)
        p = rand_pred(rng, a.arity)
        q = rand_pred(rng, a.arity)
        for i, v in a.items():
            lhs = holds(Not(And(p, q)), i, v)
            rhs = holds(Or(Not(p), Not(q)), i, v)
            assert lhs == rhs


# --- compile_predicate against the plain tree walker -------------------------


def _reference_compare(op, left, right):
    """The tree walker's comparison before predicates were compiled."""
    if op is Cmp.EQ:
        return left == right
    if op is Cmp.NE:
        return left != right
    for tag in (IntV, FloatV, StrV):
        if isinstance(left, tag) and isinstance(right, tag):
            a, b = left.value, right.value
            sign = -1 if a < b else (1 if a > b else 0)
            return sign in {Cmp.LT: (-1,), Cmp.LE: (-1, 0), Cmp.GT: (1,), Cmp.GE: (0, 1)}[op]
    return False


def reference_holds(pred, index, value):
    """Plain recursive evaluation, one isinstance chain per association."""
    if pred is TRUE or pred is FALSE:
        return pred.truth
    if isinstance(pred, ValueCmp):
        return _reference_compare(pred.op, value, pred.constant)
    if isinstance(pred, ItemCmp):
        if not isinstance(value, TupleV) or not 0 <= pred.position < len(value.items):
            return False
        return _reference_compare(pred.op, value.items[pred.position], pred.constant)
    if isinstance(pred, CoordCmp):
        return _reference_compare(pred.op, IntV(index[pred.dim_a]), IntV(index[pred.dim_b]))
    if isinstance(pred, CoordConst):
        return _reference_compare(pred.op, IntV(index[pred.dim]), IntV(pred.constant))
    if isinstance(pred, And):
        return all(reference_holds(c, index, value) for c in pred.children)
    if isinstance(pred, Or):
        return any(reference_holds(c, index, value) for c in pred.children)
    return not reference_holds(pred.child, index, value)


# scalars of every tag, with -0.0 beside 0.0 and equal numbers across tags
_CORNERS = (0, 1, -1, 0.0, -0.0, 1.0, -1.5, float("inf"), float("-inf"), "", "a", "b", None)


def _rand_constant(rng):
    return rng.choice(_CORNERS) if rng.random() < 0.5 else rand_value(rng)


def _rand_leaf_or_tree(rng, arity):
    roll = rng.random()
    if roll < 0.25:
        return ValueCmp(rng.choice(list(Cmp)), _rand_constant(rng))
    if roll < 0.5:
        # negative and out-of-range positions as well as valid ones
        return ItemCmp(rng.choice(list(Cmp)), rng.randint(-3, 4), _rand_constant(rng))
    if roll < 0.6:
        return Not(_rand_leaf_or_tree(rng, arity))
    if roll < 0.7:
        kids = tuple(_rand_leaf_or_tree(rng, arity) for _ in range(rng.randint(2, 4)))
        return And(kids) if rng.random() < 0.5 else Or(kids)
    return rand_pred(rng, arity)


def _rand_assoc_value(rng):
    roll = rng.random()
    if roll < 0.4:
        width = rng.randint(1, 4)
        return as_value(tuple(rng.choice(_CORNERS) for _ in range(width)))
    if roll < 0.6:
        return as_value(rng.choice(_CORNERS))
    return as_value(rand_value(rng))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_compiled_predicate_matches_the_tree_walker(seed):
    rng = random.Random(seed)
    for _ in range(400):
        arity = rng.randint(1, 4)
        pred = _rand_leaf_or_tree(rng, arity)
        test = compile_predicate(pred)
        for _ in range(10):
            index = tuple(rng.randint(-3, 3) for _ in range(arity))
            value = _rand_assoc_value(rng)
            got = test(index, value)
            assert type(got) is bool
            assert got == reference_holds(pred, index, value), (pred, index, value)
            assert holds(pred, index, value) == got


def test_compiled_comparisons_corner_cases():
    # -0.0 and 0.0: equal as numbers, different as stored values
    zero, negzero = as_value(0.0), as_value(-0.0)
    assert not holds(ValueCmp(Cmp.EQ, 0.0), IDX, negzero)
    assert holds(ValueCmp(Cmp.NE, 0.0), IDX, negzero)
    assert holds(ValueCmp(Cmp.LE, 0.0), IDX, negzero)
    assert holds(ValueCmp(Cmp.GE, -0.0), IDX, zero)
    assert not holds(ValueCmp(Cmp.LT, 0.0), IDX, negzero)
    # equal numbers under different tags neither match nor order
    assert not holds(ValueCmp(Cmp.EQ, 1.0), IDX, as_value(1))
    assert not holds(ValueCmp(Cmp.LE, 1.0), IDX, as_value(1))
    assert not holds(ValueCmp(Cmp.GE, 1), IDX, as_value((1,)))
    # a tuple position counts from 0 and never from the end
    v = as_value((7, "mid"))
    assert not holds(ItemCmp(Cmp.EQ, -1, "mid"), IDX, v)
    assert not holds(ItemCmp(Cmp.NE, 2, "mid"), IDX, v)
    assert holds(ItemCmp(Cmp.NE, 1, "x"), IDX, v)


# --- predicate boxes --------------------------------------------------------


def box(pred, arity):
    """``pred``'s box from ``_box_residual`` as one closed interval per
    dimension: ``(-inf, inf)`` where it is unbounded, and ``lo > hi`` on
    every dimension where it is empty."""
    bounds, _ = _box_residual(pred, arity)
    if bounds is None:
        return ((math.inf, -math.inf),) * arity
    return tuple(bounds.get(d, (-math.inf, math.inf)) for d in range(arity))


def test_box_narrows_on_coordinate_constants_only():
    inf = math.inf
    assert box(CoordConst(Cmp.LT, 1, 5), 2) == ((-inf, inf), (-inf, 4))
    assert box(CoordConst(Cmp.NE, 0, 5), 1) == ((-inf, inf),)
    stripe = And(CoordConst(Cmp.GE, 0, 10), CoordConst(Cmp.LT, 0, 20), CoordConst(Cmp.GT, 1, 3))
    assert box(stripe, 2) == ((10, 19), (4, inf))
    assert box(Or(CoordConst(Cmp.EQ, 0, 3), CoordConst(Cmp.EQ, 0, -2)), 1) == ((-2, 3),)
    for unboxed in (TRUE, Not(CoordConst(Cmp.EQ, 0, 1)), CoordCmp(Cmp.EQ, 0, 1), ValueCmp(Cmp.EQ, 1)):
        assert box(unboxed, 2) == ((-inf, inf),) * 2
    # FALSE and a contradictory And hold nowhere; neither widens an Or
    assert box(FALSE, 2) == ((inf, -inf),) * 2
    assert box(And(CoordConst(Cmp.LT, 0, 0), CoordConst(Cmp.GT, 0, 0), TRUE), 2) == box(FALSE, 2)
    assert box(Or(FALSE, CoordConst(Cmp.LE, 0, 7)), 1) == ((-inf, 7),)


def _rand_boxed_pred(rng, arity):
    """A random predicate, or one built to have a bounded or empty box."""
    roll = rng.random()
    if roll < 0.4:
        return rand_pred(rng, arity)
    dim = rng.randrange(arity)
    lo, hi = sorted(rng.randint(-8, 8) for _ in range(2))
    if roll < 0.6:
        # empty when lo == hi: x > lo and x < lo + 1 has no integer
        return And(CoordConst(Cmp.GT, dim, lo), CoordConst(Cmp.LT, dim, hi + 1), rand_pred(rng, arity))
    if roll < 0.8:
        # contradictory bounds on one dimension beside another bounded one
        return And(CoordConst(Cmp.GE, dim, hi + 1), CoordConst(Cmp.LE, dim, lo), rand_pred(rng, arity))
    return Or(_rand_boxed_pred(rng, arity), _rand_boxed_pred(rng, arity))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_box_holds_every_index_the_predicate_holds_on(seed):
    rng = random.Random(seed)
    hits = bounded = empty = 0
    for _ in range(400):
        arity = rng.randint(1, 3)
        pred = _rand_boxed_pred(rng, arity)
        bounds = box(pred, arity)
        assert len(bounds) == arity
        bounded += any(math.isfinite(lo) or math.isfinite(hi) for lo, hi in bounds)
        empty += any(lo > hi for lo, hi in bounds)
        for _ in range(20):
            index = tuple(rng.randint(-10, 10) for _ in range(arity))
            value = _rand_assoc_value(rng)
            if holds(pred, index, value):
                hits += 1
                assert all(lo <= x <= hi for x, (lo, hi) in zip(index, bounds)), (pred, index)
    assert hits > 1000 and bounded > 100 and empty > 20


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_a_residual_holds_as_its_predicate_inside_the_box(seed):
    # the residual is what partition_vertical tests in place of the predicate
    rng = random.Random(seed)
    inside = 0
    kinds = {"decided": 0, "partial": 0, "whole": 0}
    for _ in range(400):
        arity = rng.randint(1, 3)
        pred = _rand_boxed_pred(rng, arity)
        bounds = box(pred, arity)
        residual = _box_residual(pred, arity)[1]
        if all(lo <= hi for lo, hi in bounds):
            kind = "decided" if residual is TRUE else "whole" if residual == pred else "partial"
            kinds[kind] += 1
        for _ in range(20):
            index = tuple(rng.randint(-10, 10) for _ in range(arity))
            if all(lo <= x <= hi for x, (lo, hi) in zip(index, bounds)):
                inside += 1
                value = _rand_assoc_value(rng)
                assert holds(pred, index, value) == holds(residual, index, value), (pred, index)
    assert inside > 2000 and min(kinds.values()) > 20, (inside, kinds)


def test_children_and_leaves_keep_the_tree_order():
    p, q, r = CoordConst(Cmp.EQ, 0, 1), ItemCmp(Cmp.LT, 1, 2), ValueCmp(Cmp.NE, "x")
    tree = Or(And(p, Not(q)), r, TRUE)
    assert children(tree) == (And(p, Not(q)), r, TRUE)
    assert children(Not(q)) == (q,)
    for leaf in (p, q, r, TRUE, FALSE):
        assert children(leaf) == ()
    assert list(leaves(tree)) == [p, q, r, TRUE]
    assert list(leaves(p)) == [p]


SRC = Path(__file__).resolve().parent.parent / "src" / "arrac"


def test_only_the_predicates_module_reads_children():
    """Every other walk over a condition tree goes through
    predicates.children, so one module knows how a tree nests."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    reads = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        if path.name != "predicates.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "children"
    ]
    assert reads == []
