"""The planner's rewrites against plain evaluation of the tree as written.

Oracle: for every tree that typechecks, evaluating the planned tree gives
the array that unplanned ``_eval`` gives, or the same error class, message
and span.  Trees are printed and reparsed first, so every node carries the
span of its text.
"""

import random

import pytest

from arrac import Array, Cmp, CoordCmp, CoordConst, ItemCmp, Not, Or, ValueCmp, And, algebra
from arrac.errors import ArracError
from arrac.qlang import Catalog, ast, evaluate, parse, plan, print_expr, typecheck
from arrac.qlang.evaluator import _eval

from randgen import rand_array, rand_expr, rand_partition_preds, rand_pred, rand_scalar

NAMES_BY_ARITY = {1: ("A", "B", "x"), 2: ("M", "T", "data_1")}


def rand_catalog(rng):
    # a small index span, so coordinate equalities hold often; x disagrees
    # with A wherever both are defined, so unions with x conflict
    arrays = {
        name: rand_array(rng, arity=arity, max_size=6, span=3)
        for arity, names in NAMES_BY_ARITY.items() for name in names
    }
    arrays["x"] = Array(1, [(i, "clashing") for i in arrays["A"].support()])
    return Catalog(arrays)


def outcome(run):
    try:
        result = run()
    except ArracError as exc:
        return type(exc), str(exc), exc.span
    return result


def assert_plan_keeps_outcome(tree, cat):
    tree = parse(print_expr(tree))
    typecheck(tree, cat)
    planned, fired = plan(tree, cat)
    assert typecheck(planned, cat) == typecheck(tree, cat)
    expected = outcome(lambda: _eval(tree, cat))
    assert outcome(lambda: _eval(planned, cat)) == expected, (print_expr(tree), fired)
    assert outcome(lambda: evaluate(tree, cat)) == expected
    return fired


def crossing_pred(rng, left: int, right: int):
    """A conjunction mixing equalities across the cross-product boundary with
    everything that must stay behind: one-sided equalities, other
    comparisons, equalities under or/not, value leaves and nested and."""
    arity = left + right

    def crossing():
        a, b = rng.randrange(left), left + rng.randrange(right)
        return CoordCmp(Cmp.EQ, *((a, b) if rng.random() < 0.5 else (b, a)))

    def term(depth):
        roll = rng.random()
        if roll < 0.35:
            return crossing()
        if roll < 0.45:
            side = rng.choice([(0, left), (left, arity)])
            return CoordCmp(Cmp.EQ, rng.randrange(*side), rng.randrange(*side))
        if roll < 0.55:
            return CoordCmp(rng.choice([Cmp.NE, Cmp.LT, Cmp.GE]), rng.randrange(arity), rng.randrange(arity))
        if roll < 0.62:
            return Or(crossing(), rand_pred(rng, arity, 2))
        if roll < 0.67:
            return Not(crossing())
        if roll < 0.77:
            return ValueCmp(rng.choice(list(Cmp)), rand_scalar(rng))
        if roll < 0.84:
            return ItemCmp(rng.choice(list(Cmp)), rng.randint(0, 1), rand_scalar(rng))
        if roll < 0.9 and depth < 2:
            return And(tuple(term(depth + 1) for _ in range(rng.randint(2, 3))))
        return CoordConst(rng.choice(list(Cmp)), rng.randrange(arity), rng.randint(-3, 3))

    terms = [term(0) for _ in range(rng.randint(1, 4))]
    return terms[0] if len(terms) == 1 else And(tuple(terms))


def rand_typed(rng, depth: int):
    """A random tree that typechecks against ``rand_catalog``, with its arity.
    Crosses under selects, stacked selects and conflicting unions are common."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15 or (depth <= 1 and roll < 0.3):
        arity = rng.choice([1, 2])
        return ast.Ref(rng.choice(NAMES_BY_ARITY[arity])), arity
    if roll < 0.5:
        (left, a), (right, b) = rand_typed(rng, depth - 1), rand_typed(rng, depth - 1)
        node = ast.Select(ast.Cross(left, right), crossing_pred(rng, a, b))
        if rng.random() < 0.3:  # the crossing equality stacked over another select
            node = ast.Select(
                ast.Select(node.child, rand_pred(rng, a + b)), node.pred
            )
        return node, a + b
    child, arity = rand_typed(rng, depth - 1)
    if roll < 0.6:
        return ast.Select(child, rand_pred(rng, arity)), arity
    if roll < 0.8:
        name = rng.choice(NAMES_BY_ARITY.get(arity, ("A",)))
        if arity not in NAMES_BY_ARITY:
            return ast.Cross(child, ast.Ref(name)), arity + 1
        return ast.Union(child, ast.Ref(name)), arity
    if roll < 0.88:
        other, b = rand_typed(rng, depth - 1)
        return ast.Cross(child, other), arity + b
    preds = tuple(rand_partition_preds(rng, arity))
    return ast.Reassemble(ast.VPartition(child, preds)), arity


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planned_select_cross_trees_match_unplanned_eval(seed):
    rng = random.Random(seed)
    counts = {"select-fusion": 0, "cross-to-equijoin": 0, "error": 0}
    for _ in range(150):
        cat = rand_catalog(rng)
        tree, _ = rand_typed(rng, rng.randint(1, 3))
        for rule, _ in assert_plan_keeps_outcome(tree, cat):
            counts[rule] += 1
        counts["error"] += isinstance(outcome(lambda: evaluate(tree, cat)), tuple)
    # the trees exercise both rules, and errors inside rewritten subtrees
    assert min(counts.values()) >= 8, counts


@pytest.mark.parametrize("seed", [4, 5])
def test_planned_random_trees_match_unplanned_eval(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(2000):
        cat = rand_catalog(rng)
        tree = rand_expr(rng, 4)
        try:
            typecheck(tree, cat)
        except ArracError:
            continue
        assert_plan_keeps_outcome(tree, cat)
        checked += 1
    assert checked > 300


A = Array(1, [((0,), 1), ((1,), 2), ((3,), 3)])
B = Array(1, [((1,), "p"), ((3,), "q"), ((4,), "r")])
M = Array(2, [((0, 1), "a"), ((1, 1), "b"), ((3, 0), (1, 2))])
CAT = Catalog({"A": A, "B": B, "M": M})

CROSS = "cross-to-equijoin"
FUSION = "select-fusion"


@pytest.mark.parametrize("text, planned, fired", [
    ("select(cross(A, B), dim0 = dim1)", "equijoin(A, B, on(0:0))", [(CROSS, (1, 1))]),
    ("select(cross(A, B), dim1 = dim0)", "equijoin(A, B, on(0:0))", [(CROSS, (1, 1))]),
    ("select(cross(M, B), dim2 = dim1 and dim0 = dim1 and val[0] = 1)",
     "select(equijoin(M, B, on(1:0)), dim0 = dim1 and val[0] = 1)", [(CROSS, (1, 1))]),
    ("select(cross(M, M), (dim0 = dim2 and dim0 >= 0) and (dim3 = dim1 and val = 1))",
     "select(equijoin(M, M, on(0:0, 1:1)), dim0 >= 0 and val = 1)", [(CROSS, (1, 1))]),
    ("select(select(cross(A, B), dim0 = 0), dim1 = dim0)",
     "select(equijoin(A, B, on(0:0)), dim0 = 0)", [(FUSION, (1, 1)), (CROSS, (1, 1))]),
    ("select(select(select(A, dim0 = 1), dim0 > 0), val = 1)",
     "select(A, dim0 = 1 and dim0 > 0 and val = 1)", [(FUSION, (1, 8)), (FUSION, (1, 1))]),
    ("union(A, select(cross(A, B), dim0 = dim1))",
     "union(A, equijoin(A, B, on(0:0)))", [(CROSS, (1, 10))]),
    # nothing may fire: the equality is under or/not, within one side, or not an equality
    ("select(cross(A, B), dim0 = dim1 or dim0 = 0)", None, []),
    ("select(cross(A, B), not dim0 = dim1)", None, []),
    ("select(cross(M, B), dim0 = dim1)", None, []),
    ("select(cross(A, B), dim0 <= dim1)", None, []),
    ("select(cross(A, B), val = 1)", None, []),
    ("union(A, B)", None, []),
    ("equijoin(A, B, on(0:0))", None, []),
    # a crossing equality over a join the planner built widens its on list
    ("select(select(cross(M, M), dim0 = dim2 and val = 1), dim1 = dim3)",
     "select(equijoin(M, M, on(0:0, 1:1)), val = 1)",
     [(CROSS, (1, 8)), (FUSION, (1, 1)), (CROSS, (1, 1))]),
])
def test_fired_rules_are_pinned(text, planned, fired):
    tree = parse(text)
    got, got_fired = plan(tree, CAT)
    assert got_fired == fired
    assert print_expr(got) == (planned or text)
    if not fired:
        assert got is tree


def test_rewritten_nodes_keep_the_span_of_the_node_they_replace():
    got, _ = plan(parse("cross(B, select(select(cross(A, B), dim0 = 1), dim0 = dim1))"), CAT)
    join = got.right.child
    assert isinstance(join, ast.EquiJoin)
    assert got.right.span == join.span == (1, 10)


def test_runtime_error_inside_a_rewritten_tree_points_at_its_text():
    text = "select(cross(A, union(B, C)), dim0 = dim1)"
    cat = Catalog({"A": A, "B": B, "C": Array(1, [((1,), "other")])})
    fired = assert_plan_keeps_outcome(parse(text), cat)
    assert fired == [(CROSS, (1, 1))]
    with pytest.raises(ArracError) as err:
        evaluate(parse(text), cat)
    assert err.value.span == (1, 17)


def test_evaluate_runs_the_plan_and_builds_no_cross_product(monkeypatch):
    cross = algebra.cross

    # typecheck evaluates the tree as written on empty arrays, so only a
    # cross product of arrays that hold associations is refused
    def refuse(a, b):
        if len(a) or len(b):
            raise AssertionError("cross product built")
        return cross(a, b)
    monkeypatch.setattr("arrac.algebra.cross", refuse)
    text = "select(select(cross(A, B), val[0] > 1), dim1 = dim0)"
    assert evaluate(parse(text), CAT) == Array(2, [((1, 1), (2, "p")), ((3, 3), (3, "q"))])
