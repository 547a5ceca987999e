import hashlib
import random
import re

import pytest

from arrac import (
    Array,
    Cmp,
    Permute,
    RemoveDim,
    StrV,
    Translate,
    TupleV,
    ValueCmp,
    algebra,
)
from arrac.distribution import _check_slices
from arrac.errors import (
    ArityError,
    ArracError,
    BadSlices,
    BadStep,
    ConsistencyViolation,
    FormatError,
    ParseError,
    PredicateArity,
    UnboundName,
)
from arrac.qlang import (
    AntiJoin,
    Catalog,
    Cross,
    EquiJoin,
    HPartition,
    Kind,
    Project,
    Ref,
    Select,
    Transform,
    Union,
    VPartition,
    ast,
    evaluate,
    parse,
    parse_predicate,
    parse_slices,
    plan,
    print_expr,
    print_pred,
    typecheck,
)
from arrac import arrfile, cli
from arrac.arrfile import MAX_NESTING
from arrac.predicates import And, CoordCmp, CoordConst, check_dims
from arrac.transforms import _step
from arrac.qlang.evaluator import _eval
from arrac.qlang.lexer import scan

from randgen import rand_array, rand_expr


def catalog(**arrays):
    cat = Catalog()
    for name, arr in arrays.items():
        cat.bind(name, arr)
    return cat


M = Array(2, [((0, 0), "a"), ((0, 1), "b"), ((1, 0), "c"), ((1, 1), "d")])


# ---------------------------------------------------------------- parsing

def test_parse_select_value_predicate():
    assert parse('select(M, val = "b")') == Select(Ref("M"), ValueCmp(Cmp.EQ, StrV("b")))


def test_parse_bare_reference():
    assert parse("M") == Ref("M")


def test_parse_stops_at_end_of_input():
    with pytest.raises(ParseError) as err:
        parse("cross(M,")
    assert (err.value.line, err.value.column) == (1, 9)
    assert err.value.expected


def test_parse_all_operator_forms():
    assert parse("project(M, {(1, 0), (0, 0)})") == Project(Ref("M"), ((0, 0), (1, 0)))
    assert parse("project(M, {})") == Project(Ref("M"), ())
    assert parse("cross(A, B)") == Cross(Ref("A"), Ref("B"))
    assert parse("union(A, B)") == Union(Ref("A"), Ref("B"))
    assert parse("transform(M, [permute(1, 0), translate(0, -2)])") == Transform(
        Ref("M"), (Permute((1, 0)), Translate(0, -2))
    )
    assert parse("equijoin(A, B, on(0:1, 1:0))") == EquiJoin(
        Ref("A"), Ref("B"), ((0, 1), (1, 0))
    )
    assert parse("antijoin(A, B, on())") == AntiJoin(Ref("A"), Ref("B"), ())
    assert parse("vpartition(M, dim0 < 0, dim0 >= 0)") == VPartition(
        Ref("M"), (CoordConst(Cmp.LT, 0, 0), CoordConst(Cmp.GE, 0, 0))
    )
    assert parse("hpartition(T, [{2, 1}, {0}])") == HPartition(Ref("T"), ((1, 2), (0,)))
    assert print_expr(parse("reassemble(vpartition(M, dim0 = 0, dim0 != 0))")) == (
        "reassemble(vpartition(M, dim0 = 0, dim0 != 0))"
    )


def test_parse_rejects_unknown_operator():
    with pytest.raises(ParseError) as err:
        parse("frobnicate(M)")
    assert err.value.expected == frozenset(ast.OPERATORS)
    with pytest.raises(ParseError) as err:
        parse("transform(M, [1])")
    assert err.value.expected == frozenset(ast.STEPS)


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError) as err:
        parse("select(M, val = 1) extra")
    assert err.value.column == 20
    assert str(err.value) == "unexpected input after the expression (found 'extra')"
    assert err.value.expected == frozenset({"end of input"})


def test_array_literal_repeating_an_index_is_a_parse_error_at_the_literal():
    # the same value in an .arr file is a format error; a repeat is never merged
    for text, message in (
        ("select(A, val = array{arity=1; 0 -> 1; 0 -> 1})", "array value repeats an index"),
        ("select(A, val = array{arity=1; 0 -> 1; 0 -> 2})",
         "index (0,) bound to two different values"),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line, err.value.column) == (message, 1, 17)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ('select(M,\n  val = "ab', "unterminated string literal", 2, 9),
        ('select(M,\n  val = "ab\n")', "unterminated string literal", 2, 9),
        ('M\n  "a\\qb"', "bad escape in string literal", 2, 5),
        ('"ab\\', "bad escape in string literal", 1, 4),
        ("dim0 = 1 $ 2", "unexpected character '$'", 1, 10),
        ("dim0 = \u00b2", "unexpected character '\u00b2'", 1, 8),
        ("dim0 = 1\u0663", "unexpected character '\u0663'", 1, 9),
    ],
    ids=["unterminated", "newline-in-string", "bad-escape", "escape-at-end",
         "unexpected", "superscript-digit", "arabic-indic-digit"],
)
def test_lexer_errors_locate_the_offending_character(text, message, line, column):
    err = scan(text)[-1].value
    assert isinstance(err, ParseError)
    assert (str(err), err.line, err.column) == (message, line, column)


def test_lexer_positions_and_values():
    tokens = scan('sel_1(M,\t"a\\"b", 1.5e2 -> 7) # note')
    assert [(t.kind, t.text, t.line, t.column, t.value) for t in tokens] == [
        ("ident", "sel_1", 1, 1, None),
        ("op", "(", 1, 6, None),
        ("ident", "M", 1, 7, None),
        ("op", ",", 1, 8, None),
        ("string", '"a\\"b"', 1, 10, 'a"b'),
        ("op", ",", 1, 16, None),
        ("float", "1.5e2", 1, 18, 150.0),
        ("op", "->", 1, 24, None),
        ("int", "7", 1, 27, 7),
        ("op", ")", 1, 28, None),
        ("eof", "", 1, 36, None),
    ]


@pytest.mark.parametrize(
    "text, message, column",
    [
        # a syntax error before a stray character is the first fault
        ("select(V, dim0 < ) \u0663",
         "coordinates compare to integers or other coordinates (found ')')", 18),
        ('select(V, val = ) "ab', "expected a value literal (found ')')", 17),
        (f"select(V, ) {'9' * 5000}", "expected a predicate (found ')')", 11),
        # a stray character before any syntax error, in the word the parser
        # stops at, or after a whole query, is the first fault
        ("select(V, dim0 < 1 \u0663)", "unexpected character '\u0663'", 20),
        ("select(V, dim\u0663 < )", "unexpected character '\u0663'", 14),
        ("select(V, dim0 < 1) \u0663", "unexpected character '\u0663'", 21),
    ],
    ids=["syntax-then-character", "syntax-then-string", "syntax-then-huge-int",
         "character-then-syntax", "character-inside-a-word", "character-after-the-query"],
)
def test_parse_reports_the_first_fault_in_text_order(text, message, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (message, 1, column)


def test_index_set_literals_are_normalized():
    assert parse("project(M, {(1, 0), (0, 0), (1, 0)})").indexes == ((0, 0), (1, 0))


def test_parse_literals():
    text = 'select(M, val = tuple(1, -2.5, "x\\n", undef, array{arity=1; 0 -> inf}))'
    assert print_expr(parse(text)) == text


def test_parse_predicate_standalone():
    assert parse_predicate("dim0 = dim1") == CoordCmp(Cmp.EQ, 0, 1)
    with pytest.raises(ParseError, match=r"^unexpected input after the predicate \(found 'garbage'\)$"):
        parse_predicate("dim0 = dim1 garbage")


def test_parse_slices_standalone():
    assert parse_slices("[{0}, {1, 2}]") == ((0,), (1, 2))
    with pytest.raises(ParseError, match=r"^unexpected input after the slice list \(found 'tail'\)$"):
        parse_slices("[{0}] tail")


def test_and_chains_flatten_one_level():
    p = parse_predicate("dim0 = 0 and dim0 = 1 and val < 2")
    assert isinstance(p, And) and len(p.children) == 3


def test_spans_locate_the_operator_token():
    expr = parse("cross(A, union(B, C))")
    assert expr.span == (1, 1)
    assert expr.right.span == (1, 10)
    assert expr.right.left.span == (1, 16)


# ---------------------------------------------------------------- printing

def test_print_is_canonical_whitespace():
    assert print_expr(parse('select( M ,val="b" )')) == 'select(M, val = "b")'


def test_print_parse_fixpoint_corpus():
    corpus = [
        "M",
        "project(M, {(0, 0), (1, 1)})",
        'select(M, val != "a" and dim1 > 0)',
        "select(M, not (dim0 = 0 or dim1 = 0))",
        "cross(select(A, dim0 < 3), B)",
        "transform(M, [removedim(1), compact(0)])",
        "transform(M, [remapdim(0, {0: 5, 1: 6}), insertfromtable(0, {(0): 1})])",
        # the empty lists the printer writes, as invert makes for Compact on an empty array
        "transform(M, [])",
        "transform(M, [remapdim(0, {}), insertfromtable(0, {})])",
        "union(project(M, {}), M)",
        "equijoin(A, B, on(0:0))",
        "semijoin(A, B, on(1:0, 0:1))",
        "antijoin(A, B, on())",
        "vpartition(M, dim0 <= -1, dim0 > -1)",
        "hpartition(T, [{0, 2}, {1}])",
        "reassemble(hpartition(T, [{0}, {1, 2}]))",
        'select(M, val[0] >= 1.5 or val = tuple("u", undef))',
    ]
    for text in corpus:
        tree = parse(text)
        assert print_expr(tree) == text
        assert parse(print_expr(tree)) == tree


def test_print_parse_fixpoint_random_trees():
    rng = random.Random(71)
    for _ in range(300):
        tree = rand_expr(rng, depth=4)
        assert parse(print_expr(tree)) == tree


def test_print_minimal_predicate_parens():
    cases = [
        "dim0 = 0 and dim1 = 1 or val = 2",
        "(dim0 = 0 or dim1 = 1) and val = 2",
        "not (dim0 = 0 and val != -inf) or val[2] <= 3",
        "not not dim0 = 0",
    ]
    for text in cases:
        assert print_pred(parse_predicate(text)) == text


def _nodes(tree):
    yield tree
    for f in ast.OPERANDS[type(tree)]:
        yield from _nodes(getattr(tree, f))


def test_every_operator_in_the_table_runs_through_it():
    rng = random.Random(6)
    cat = catalog(
        A=rand_array(rng, arity=1), B=rand_array(rng, arity=1), x=rand_array(rng, arity=1),
        M=M, data_1=rand_array(rng, arity=2),
        T=Array(1, [((0,), (1, "x", 2.5)), ((1,), (2, "y", 3.5))]),
    )
    operators = set(ast.OPERATORS.values())
    seen, evaluated = set(), set()
    for _ in range(3000):
        tree = rand_expr(rng, depth=3)
        seen.update(type(node) for node in _nodes(tree))
        assert parse(print_expr(tree)) == tree
        try:
            typecheck(tree, cat)
        except (ArityError, UnboundName):
            continue
        try:
            evaluate(tree, cat)
        except ArracError:
            pass
        evaluated.add(type(tree))
    assert seen == evaluated == operators | {Ref}


# ---------------------------------------------------------------- typecheck

def test_typecheck_union_arity_mismatch():
    cat = catalog(A=Array(1), B=Array(2))
    with pytest.raises(ArityError):
        typecheck(parse("union(A, B)"), cat)


def test_typecheck_cross_adds_arities():
    cat = catalog(A=Array(2), B=Array(1))
    assert typecheck(parse("cross(A, B)"), cat) == Kind("array", 3)
    assert str(Kind("array", 3)) == "array(3)"


def test_typecheck_unbound_name():
    with pytest.raises(UnboundName):
        typecheck(parse("Q"), Catalog())


@pytest.mark.parametrize("check", [typecheck, evaluate], ids=["typecheck", "evaluate"])
def test_unbound_ref_is_named_at_its_span(check):
    with pytest.raises(UnboundName) as exc:
        check(parse("cross(M,\n  NOPE)"), catalog(M=M))
    assert str(exc.value) == "'NOPE' is not bound in the catalog"
    assert exc.value.span == (2, 3)


def test_typecheck_validates_predicate_dims():
    cat = catalog(M=M)
    with pytest.raises(ArityError):
        typecheck(parse("select(M, dim5 = 0)"), cat)
    with pytest.raises(ArityError):
        typecheck(parse("equijoin(M, M, on(0:7))"), cat)


def test_typecheck_project_index_widths():
    cat = catalog(M=M)
    with pytest.raises(ArityError):
        typecheck(parse("project(M, {(0, 0, 0)})"), cat)


def test_typecheck_transform_folds_steps():
    cat = catalog(M=M)
    assert typecheck(parse("transform(M, [removedim(0)])"), cat) == Kind("array", 1)
    with pytest.raises(ArityError):
        typecheck(parse("transform(M, [removedim(0), removedim(0)])"), cat)


def test_typecheck_placement_kinds():
    cat = catalog(M=M)
    expr = parse("vpartition(M, dim0 = 0, dim0 != 0)")
    assert typecheck(expr, cat) == Kind("placement", 2)
    assert typecheck(parse("reassemble(vpartition(M, dim0 = 0, dim0 != 0))"), cat) == Kind(
        "array", 2
    )
    with pytest.raises(ArityError):
        typecheck(parse("reassemble(M)"), cat)
    with pytest.raises(ArityError):
        typecheck(parse("cross(M, vpartition(M, dim0 = 0, dim0 != 0))"), cat)


# ---------------------------------------------------------------- evaluate

def test_evaluate_reference_returns_binding():
    assert evaluate(parse("M"), catalog(M=M)) is M


def test_evaluate_select_cross_matches_join_oracle():
    a = Array(1, [((0,), 1), ((1,), 2), ((3,), 3)])
    b = Array(1, [((1,), "p"), ((3,), "q"), ((4,), "r")])
    cat = catalog(A=a, B=b)
    out = evaluate(parse("select(cross(A, B), dim0 = dim1)"), cat)
    expected = {}
    for i, u in a.items():
        for j, v in b.items():
            if i[0] == j[0]:
                expected[i + j] = TupleV((u, v))
    assert dict(out.items()) == expected
    assert out == algebra.equi_join(a, b, [(0, 0)])


def test_evaluate_projected_cross_reduces_to_semijoin():
    a = Array(1, [((0,), 1), ((1,), 2), ((2,), 3)])
    b = Array(1, [((0,), "p"), ((2,), "q"), ((5,), "r")])
    cat = catalog(A=a, B=b)
    out = evaluate(parse("project(select(cross(A, B), dim0 = dim1), {(0, 0), (2, 2)})"), cat)
    reduced = Array(1, [((i[0],), out[i].items[0]) for i in out.support()])
    assert reduced == algebra.semi_join(a, b, [(0, 0)])


def test_evaluate_matches_hand_composition():
    rng = random.Random(73)
    for _ in range(40):
        a = rand_array(rng, arity=2, max_size=10)
        cat = catalog(M=a)
        text = "transform(select(M, dim0 >= 0), [permute(1, 0), translate(1, 3)])"
        expected = algebra.transform(
            algebra.select(a, CoordConst(Cmp.GE, 0, 0)),
            [Permute((1, 0)), Translate(1, 3)],
        )
        assert evaluate(parse(text), cat) == expected


def test_evaluate_partition_round_trip():
    cat = catalog(M=M, T=Array(1, [((0,), (1, "x", 2.0)), ((1,), (2, "y", 3.0))]))
    assert evaluate(parse("reassemble(vpartition(M, dim0 = 0, dim0 != 0))"), cat) == M
    assert evaluate(parse("reassemble(hpartition(T, [{0}, {1, 2}]))"), cat) == cat.lookup("T")


def test_evaluate_is_deterministic():
    rng = random.Random(79)
    a = rand_array(rng, arity=2, max_size=12)
    cat = catalog(A=a, B=rand_array(rng, arity=1, max_size=8))
    tree = parse("semijoin(A, B, on(0:0))")
    assert evaluate(tree, cat) == evaluate(tree, cat)


def test_evaluate_typechecks_first():
    with pytest.raises(UnboundName):
        evaluate(parse("cross(M, Q)"), catalog(M=M))


def test_runtime_errors_carry_the_node_span():
    a = Array(1, [((0,), "x")])
    b = Array(1, [((0,), "y")])
    cat = catalog(A=a, B=b)
    with pytest.raises(ConsistencyViolation) as err:
        evaluate(parse("cross(A, union(A, B))"), cat)
    assert err.value.span == (1, 10)


def test_typecheck_errors_carry_the_node_span():
    with pytest.raises(ArityError) as err:
        typecheck(parse("union(A, cross(A, A))"), catalog(A=Array(1, [((0,), 1)])))
    assert err.value.span == (1, 1)


def test_an_empty_vpartition_evaluates_as_the_engine_does():
    # the grammar and manifests need one predicate; Python code can build none,
    # which the engine refuses, so the checker does too, at the node
    tree = VPartition(Ref("A"), (), (1, 1))
    for cat in (catalog(A=M), catalog(A=Array(2))):
        for check in (typecheck, evaluate):
            with pytest.raises(ArityError, match="^vpartition needs at least one predicate$") as err:
                check(tree, cat)
            assert err.value.span == (1, 1)


# The rule-based typecheck that evaluating on empty arrays replaced: one kind
# rule per operator, restating the shape checks the engine makes.

def _rule_project(node, arity):
    for index in node.indexes:
        if len(index) != arity:
            raise ArityError(
                f"project index {index!r} has {len(index)} coordinates, "
                f"operand has arity {arity}"
            )
    return Kind("array", arity)


def _rule_select(node, arity):
    check_dims(node.pred, arity)
    return Kind("array", arity)


def _rule_transform(node, arity):
    for step in node.steps:
        arity = _step(step, arity, ())[0]
    return Kind("array", arity)


def _rule_union(node, a, b):
    if a != b:
        raise ArityError(f"union of arity {a} with arity {b}")
    return Kind("array", a)


def _rule_semijoin(node, a, b):
    for da, db in node.on:
        if not (0 <= da < a and 0 <= db < b):
            raise ArityError(f"join pair {da}:{db} is outside arities ({a}, {b})")
    return Kind("array", a)


def _rule_vpartition(node, arity):
    if not node.predicates:
        raise ArityError("vpartition needs at least one predicate")
    for pred in node.predicates:
        check_dims(pred, arity)
    return Kind("placement", arity)


def _rule_hpartition(node, arity):
    _check_slices(node.slices, None)
    return Kind("placement", arity)


_RULES = {
    Project: _rule_project,
    Select: _rule_select,
    Cross: lambda node, a, b: Kind("array", a + b),
    Transform: _rule_transform,
    Union: _rule_union,
    EquiJoin: lambda node, a, b: Kind("array", _rule_semijoin(node, a, b).arity + b),
    ast.SemiJoin: _rule_semijoin,
    AntiJoin: _rule_semijoin,
    VPartition: _rule_vpartition,
    HPartition: _rule_hpartition,
    ast.Reassemble: lambda node, arity: Kind("array", arity),
}


def _located(exc, node):
    exc.span = node.span
    return exc


def rule_typecheck(expr, cat):
    if isinstance(expr, Ref):
        array = cat.lookup(expr.name)
        if array is None:
            raise _located(UnboundName(f"{expr.name!r} is not bound in the catalog"), expr)
        return Kind("array", array.arity)
    takes = "placement" if isinstance(expr, ast.Reassemble) else "array"
    arities = []
    for f in ast.OPERANDS[type(expr)]:
        kind = rule_typecheck(getattr(expr, f), cat)
        if kind.sort != takes:
            applies = "a placement" if takes == "placement" else "arrays, not placements"
            raise _located(ArityError(f"{type(expr).__name__.lower()} applies to {applies}"), expr)
        arities.append(kind.arity)
    try:
        return _RULES[type(expr)](expr, *arities)
    except (ArityError, BadSlices, BadStep, PredicateArity) as exc:
        raise _located(ArityError(str(exc)), expr)


def _outcome(check, tree, cat):
    try:
        return check(tree, cat)
    except ArracError as exc:
        return type(exc), exc.span, str(exc)


def _engine_message(old_message, tree, span):
    """The engine's wording for the three rules whose message changed, or
    None when the rule's message stands."""
    if m := re.fullmatch(r"union of arity (\d+) with arity (\d+)", old_message):
        return "union", f"cannot union a {m[1]}-d array with a {m[2]}-d array"
    if m := re.fullmatch(r"project index (.*) has (\d+) coordinates, operand has arity (\d+)",
                         old_message):
        return "project", f"index {m[1]} has {m[2]} coordinates, expected {m[3]}"
    if m := re.fullmatch(r"join pair -?\d+:-?\d+ is outside arities \((\d+), (\d+)\)",
                         old_message):
        a, b = int(m[1]), int(m[2])
        (node,) = [n for n in _nodes(tree) if n.span == span]
        # the engine checks the pairs sorted, the left dimension first
        for da, db in sorted(set(node.on)):
            if not 0 <= da < a:
                return "join", f"join dimension {da} out of range for left arity {a}"
            if not 0 <= db < b:
                return "join", f"join dimension {db} out of range for right arity {b}"
    return None, old_message


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_typecheck_matches_the_kind_rules(seed):
    rng = random.Random(seed)
    cat = catalog(A=Array(1), B=Array(1), M=Array(2), T=Array(1), data_1=Array(3))
    changed = {"union": 0, "project": 0, "join": 0}
    for _ in range(2000):
        # reparsed from text, so that every node carries a span
        tree = parse(print_expr(rand_expr(rng, depth=3)))
        old, new = _outcome(rule_typecheck, tree, cat), _outcome(typecheck, tree, cat)
        if isinstance(old, Kind):
            assert new == old, print_expr(tree)
            continue
        assert new[:2] == old[:2], print_expr(tree)
        rule, message = _engine_message(old[2], tree, old[1])
        assert new[2] == message, print_expr(tree)
        if rule:
            changed[rule] += 1
    assert all(changed.values()), changed


class _Untouchable:
    """Stands in for an array's associations; any use of it fails."""

    def _touched(self, *args):
        raise AssertionError("typecheck read array data")

    __getattr__ = __getitem__ = __iter__ = __len__ = __contains__ = __bool__ = _touched
    __eq__ = __hash__ = _touched


def test_typecheck_reads_only_arities():
    cat = catalog(A=Array._of(1, _Untouchable()), M=Array._of(2, _Untouchable()))
    text = "reassemble(vpartition(select(cross(A, M), dim0 = dim1), dim2 < 0, dim2 >= 0))"
    assert typecheck(parse(text), cat) == Kind("array", 3)
    assert typecheck(parse("hpartition(equijoin(M, A, on(1:0)), [{0}, {1}])"), cat) == Kind(
        "placement", 3
    )
    with pytest.raises(ArityError) as err:
        typecheck(parse("transform(union(A, A), [removedim(0)])"), cat)
    assert err.value.span == (1, 1)
    with pytest.raises(ArityError):
        typecheck(parse("semijoin(M, A, on(0:1))"), cat)


# ---------------------------------------------------------------- catalog

def test_catalog_bind_lookup():
    cat = Catalog()
    cat.bind("data_1", M)
    assert cat.lookup("data_1") is M
    assert "data_1" in cat and len(cat) == 1
    assert cat.names() == ["data_1"]
    cat.bind("data_1", Array(1))  # rebinding replaces
    assert cat.lookup("data_1").arity == 1


def test_catalog_binds_labels_and_names_what_is_unbound():
    labels = arrfile.loads("arrac v1 arity=2 count=0\nlabel dim=1 0=id\n")[1]
    cat = Catalog({"M": M})
    cat.bind("S", M, labels)
    assert cat.array("S") is M and cat.labels("S") is labels
    assert cat.labels("M") is None and cat.labels("missing") is None
    with pytest.raises(UnboundName, match=r"^'missing' is not bound in the catalog$"):
        cat.array("missing")
    cat.bind("S", Array(1))  # rebinding replaces the labels too
    assert cat.labels("S") is None


def test_catalog_rejects_bad_names():
    cat = Catalog()
    for bad in ("", "9x", "has space", "a-b"):
        with pytest.raises(ValueError):
            cat.bind(bad, M)
    assert cat.lookup("missing") is None


def test_catalog_sees_a_file_bound_name_before_it_is_parsed(tmp_path):
    text = "arrac v1 arity=2 count=1\nlabel dim=1 0=id\n0,0 -> int:1\n"
    (tmp_path / "L.arr").write_text(text)
    cat = Catalog({"M": M})
    cat.bind_file("L", tmp_path / "L.arr")
    assert "L" in cat and len(cat) == 2 and cat.names() == ["L", "M"]
    assert cat.labels("L") == arrfile.loads(text)[1]
    assert cat.lookup("L") == cat.array("L") == arrfile.loads(text)[0]
    assert len(cat) == 2 and cat.names() == ["L", "M"]
    cat.bind_file("M", tmp_path / "L.arr")  # rebinding replaces
    assert cat.array("M") == cat.array("L") and len(cat) == 2
    with pytest.raises(UnboundName, match=r"^'X' is not bound in the catalog$"):
        cat.array("X")
    with pytest.raises(ValueError):
        cat.bind_file("a-b", tmp_path / "L.arr")


def test_catalog_file_that_fails_when_first_used_names_its_path(tmp_path):
    (tmp_path / "B.arr").write_text("arrac v1 arity=1 count=1\nzz -> int:1\n")
    cat = Catalog()
    cat.bind_file("B", tmp_path / "B.arr")
    for _ in range(2):  # a failed parse leaves the name bound to its file
        with pytest.raises(FormatError) as err:
            cat.labels("B")
        assert (err.value.path, err.value.line) == (str(tmp_path / "B.arr"), 2)
    assert "B" in cat


def test_a_memo_forged_for_a_corrupt_file_fails_when_it_is_named(tmp_path, capsys):
    data = b"arrac v1 arity=1 count=1\nzz -> int:1\n"
    (tmp_path / "B.arr").write_bytes(data)
    arrfile.save(tmp_path / "M.arr", M)
    (tmp_path / ".arrac-parsed").write_text(
        f"{cli._MEMO_HEADER}\nB.arr {hashlib.sha256(data).hexdigest()}\n"
    )
    # vouched for, B is not parsed until a query names it
    assert cli.main(["query", "-c", str(tmp_path), "M"]) == 0
    assert capsys.readouterr().out == arrfile.dumps(M)
    assert cli.main(["query", "-c", str(tmp_path), "union(M, B)"]) == 5
    err = capsys.readouterr().err
    assert err.endswith(f"  --> {tmp_path / 'B.arr'}, line 2\n")


# ---------------------------------------------------------------- nesting

# shape -> (query nested n levels deep, the token that opens each level)
NESTED = {
    "select": (lambda n: "select(" * n + "A" + ", dim0 = 0)" * n, "select("),
    "union": (lambda n: "union(" * n + "A" + ", A)" * n, "union("),
    "cross": (lambda n: "cross(" * n + "A" + ", A)" * n, "cross("),
    "not": (lambda n: "select(A, " + "not " * (n - 1) + "dim0 = 0)", "not "),
    "group": (lambda n: "select(A, " + "(" * (n - 1) + "dim0 = 0" + ")" * (n - 1) + ")", "("),
    "and": (lambda n: "select(A, " + "(dim0 = 0 and " * (n - 1) + "val = 1" + ")" * (n - 1) + ")",
            "(dim0"),
    "tuple": (lambda n: "select(A, val = " + "tuple(" * (n - 1) + "1" + ")" * (n - 1) + ")",
              "tuple("),
    "array": (lambda n: "select(A, val != " + "array{arity=1; 0 -> " * (n - 1) + "1" + "}" * (n - 1) + ")",
              "array{"),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_a_query_nested_to_the_limit_runs_through(shape):
    cat = catalog(A=Array(1, [((0,), 1)]))
    tree = parse(NESTED[shape][0](MAX_NESTING))
    typecheck(tree, cat)
    planned, _ = plan(tree, cat)
    assert parse(print_expr(tree)) == tree
    assert parse(print_expr(planned)) == planned
    result = evaluate(tree, cat)
    assert result == _eval(tree, cat)
    assert arrfile.loads(arrfile.dumps(result))[0] == result


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_limit_is_a_located_parse_error(shape):
    query, opener = NESTED[shape]
    text = query(MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith(f"nesting deeper than {MAX_NESTING} levels")
    # at the last opener, which opens level MAX_NESTING + 1
    assert (err.value.line, err.value.column) == (1, text.rfind(opener) + 1)
