"""Recursive-descent parser for the query language.

Shape of the language::

    expr     := NAME | opname "(" args ")"
    indexset := "{" "}" | "{" "(" int ("," int)* ")" ... "}"
    pred     := orpred ; orpred := andpred ("or" andpred)* ;
                andpred := unary ("and" unary)* ;
                unary := "not" unary | "(" pred ")" | "true" | "false" | atom
    atom     := ("val" ("[" INT "]")? CMP literal) | (dimK CMP (int | dimK))
    transf   := "[" step ("," step)* "]"
    onlist   := "on" "(" (INT ":" INT ("," INT ":" INT)*)? ")"
    slices   := "[" "{" INT ... "}" ("," "{" INT ... "}")* "]"

Each operator's argument list is parsed against its own signature, so
diagnostics can say what was expected where.  Literals cover every value the
engine can store: scalars, strings, undef, tuple(...) and inline
array{arity=n; i,j -> value; ...} forms.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import NoReturn, Optional

from ..arrfile import MAX_NESTING
from ..core import Array, ArrayV, FloatV, IntV, StrV, TupleV, UNDEF, Value
from ..errors import ArracError, ParseError
from ..predicates import (
    And,
    Cmp,
    CoordCmp,
    CoordConst,
    FALSE,
    ItemCmp,
    Not,
    Or,
    Predicate,
    TRUE,
    ValueCmp,
)
from ..transforms import (
    Compact,
    InsertDim,
    InsertFromTable,
    Permute,
    RemapDim,
    RemoveDim,
    Translate,
)
from . import ast
from .lexer import Token, tokenize

_DIM_RE = re.compile(r"dim(\d+)\Z")

_CMP_TEXTS = ("=", "!=", "<", "<=", ">", ">=")

OPERATOR_NAMES = (
    "project",
    "select",
    "cross",
    "transform",
    "union",
    "equijoin",
    "semijoin",
    "antijoin",
    "vpartition",
    "hpartition",
    "reassemble",
)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # enclosing operator calls, predicate groups and literals

    # --- token plumbing -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        k = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[k]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None, expected=()) -> NoReturn:
        tok = tok or self.peek()
        where = f" (found {tok.text!r})" if tok.kind != "eof" else " (at end of input)"
        raise ParseError(message + where, tok.line, tok.column, expected=tuple(expected))

    @contextmanager
    def nested(self, tok: Token):
        """One more nesting level, opened at ``tok``."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        yield
        self.depth -= 1

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        self.fail(f"expected {text!r}", tok, expected=(text,))

    def expect_int(self, what: str = "an integer") -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return tok.value
        self.fail(f"expected {what}", tok, expected=("integer",))

    def signed_int(self) -> int:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return -self.expect_int()
        return self.expect_int()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def at_ident(self, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    # --- expressions ----------------------------------------------------

    def expr(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected an expression", tok, expected=("identifier",))
        span = (tok.line, tok.column)
        name = tok.text
        if self.peek(1).kind == "op" and self.peek(1).text == "(":
            if name not in OPERATOR_NAMES:
                self.fail(
                    f"unknown operator {name!r}", tok, expected=OPERATOR_NAMES
                )
            with self.nested(tok):
                self.advance()
                self.expect_op("(")
                node = self.call_body(name, span)
                self.expect_op(")")
            return node
        self.advance()
        return ast.Ref(name, span=span)

    def call_body(self, name: str, span) -> ast.Expr:
        first = self.expr()
        if name == "reassemble":
            return ast.Reassemble(first, span=span)
        if name == "project":
            self.expect_op(",")
            return ast.Project(first, self.indexset(), span=span)
        if name == "select":
            self.expect_op(",")
            return ast.Select(first, self.pred(), span=span)
        if name == "cross":
            self.expect_op(",")
            return ast.Cross(first, self.expr(), span=span)
        if name == "union":
            self.expect_op(",")
            return ast.Union(first, self.expr(), span=span)
        if name == "transform":
            self.expect_op(",")
            return ast.Transform(first, self.transf(), span=span)
        if name in ("equijoin", "semijoin", "antijoin"):
            self.expect_op(",")
            right = self.expr()
            self.expect_op(",")
            on = self.onlist()
            node_cls = {
                "equijoin": ast.EquiJoin,
                "semijoin": ast.SemiJoin,
                "antijoin": ast.AntiJoin,
            }[name]
            return node_cls(first, right, on, span=span)
        if name == "vpartition":
            preds = []
            self.expect_op(",")
            preds.append(self.pred())
            while self.at_op(","):
                self.advance()
                preds.append(self.pred())
            return ast.VPartition(first, tuple(preds), span=span)
        if name == "hpartition":
            self.expect_op(",")
            return ast.HPartition(first, self.slices(), span=span)
        raise AssertionError(name)

    # --- literal argument forms ------------------------------------------

    def index_tuple(self) -> tuple:
        self.expect_op("(")
        coords = [self.signed_int()]
        while self.at_op(","):
            self.advance()
            coords.append(self.signed_int())
        self.expect_op(")")
        return tuple(coords)

    def indexset(self) -> tuple:
        self.expect_op("{")
        if self.at_op("}"):
            self.advance()
            return ()
        tuples = [self.index_tuple()]
        while self.at_op(","):
            self.advance()
            tuples.append(self.index_tuple())
        self.expect_op("}")
        # set literal: order and multiplicity are not meaningful
        return tuple(sorted(set(tuples)))

    def onlist(self) -> tuple:
        tok = self.peek()
        if not self.at_ident("on"):
            self.fail("expected an on(...) list", tok, expected=("on",))
        self.advance()
        self.expect_op("(")
        pairs = []
        if not self.at_op(")"):
            while True:
                a = self.expect_int("a dimension of the left operand")
                self.expect_op(":")
                b = self.expect_int("a dimension of the right operand")
                pairs.append((a, b))
                if not self.at_op(","):
                    break
                self.advance()
        self.expect_op(")")
        return tuple(pairs)

    def slices(self) -> tuple:
        self.expect_op("[")
        groups = [self.posset()]
        while self.at_op(","):
            self.advance()
            groups.append(self.posset())
        self.expect_op("]")
        return tuple(groups)

    def posset(self) -> tuple:
        self.expect_op("{")
        positions = [self.expect_int("a tuple position")]
        while self.at_op(","):
            self.advance()
            positions.append(self.expect_int("a tuple position"))
        self.expect_op("}")
        return tuple(sorted(set(positions)))

    # --- transform steps --------------------------------------------------

    def transf(self) -> tuple:
        self.expect_op("[")
        steps = [self.step()]
        while self.at_op(","):
            self.advance()
            steps.append(self.step())
        self.expect_op("]")
        return tuple(steps)

    def step(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(
                "expected a transform step",
                tok,
                expected=(
                    "permute",
                    "translate",
                    "insertdim",
                    "removedim",
                    "compact",
                    "remapdim",
                    "insertfromtable",
                ),
            )
        name = tok.text
        self.advance()
        self.expect_op("(")
        if name == "permute":
            perm = [self.expect_int("a dimension")]
            while self.at_op(","):
                self.advance()
                perm.append(self.expect_int("a dimension"))
            out = Permute(tuple(perm))
        elif name == "translate":
            dim = self.expect_int("a dimension")
            self.expect_op(",")
            out = Translate(dim, self.signed_int())
        elif name == "insertdim":
            position = self.expect_int("a position")
            self.expect_op(",")
            out = InsertDim(position, self.signed_int())
        elif name == "removedim":
            out = RemoveDim(self.expect_int("a position"))
        elif name == "compact":
            out = Compact(self.expect_int("a dimension"))
        elif name == "remapdim":
            dim = self.expect_int("a dimension")
            self.expect_op(",")
            out = RemapDim(dim, self.int_map())
        elif name == "insertfromtable":
            position = self.expect_int("a position")
            self.expect_op(",")
            out = InsertFromTable(position, self.table_map())
        else:
            self.fail(f"unknown transform step {name!r}", tok)
        self.expect_op(")")
        return out

    def int_map(self) -> tuple:
        self.expect_op("{")
        pairs = []
        while True:
            old = self.signed_int()
            self.expect_op(":")
            pairs.append((old, self.signed_int()))
            if not self.at_op(","):
                break
            self.advance()
        self.expect_op("}")
        return tuple(pairs)

    def table_map(self) -> tuple:
        self.expect_op("{")
        pairs = []
        while True:
            index = self.index_tuple()
            self.expect_op(":")
            pairs.append((index, self.signed_int()))
            if not self.at_op(","):
                break
            self.advance()
        self.expect_op("}")
        return tuple(pairs)

    # --- predicates -------------------------------------------------------

    def pred(self) -> Predicate:
        terms = [self.and_pred()]
        while self.at_ident("or"):
            self.advance()
            terms.append(self.and_pred())
        return terms[0] if len(terms) == 1 else Or(*terms)

    def and_pred(self) -> Predicate:
        terms = [self.unary_pred()]
        while self.at_ident("and"):
            self.advance()
            terms.append(self.unary_pred())
        return terms[0] if len(terms) == 1 else And(*terms)

    def unary_pred(self) -> Predicate:
        tok = self.peek()
        if self.at_ident("not"):
            with self.nested(tok):
                self.advance()
                return Not(self.unary_pred())
        if self.at_op("("):
            with self.nested(tok):
                self.advance()
                inner = self.pred()
                self.expect_op(")")
            return inner
        if self.at_ident("true"):
            self.advance()
            return TRUE
        if self.at_ident("false"):
            self.advance()
            return FALSE
        return self.atom()

    def cmp_op(self) -> Cmp:
        tok = self.peek()
        if tok.kind == "op" and tok.text in _CMP_TEXTS:
            self.advance()
            return Cmp(tok.text)
        self.fail("expected a comparison operator", tok, expected=_CMP_TEXTS)

    def atom(self) -> Predicate:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(
                "expected a predicate",
                tok,
                expected=("val", "dim<k>", "not", "true", "false", "("),
            )
        if tok.text == "val":
            self.advance()
            position = None
            if self.at_op("["):
                self.advance()
                position = self.expect_int("a tuple position")
                self.expect_op("]")
            op = self.cmp_op()
            constant = self.literal()
            if position is None:
                return ValueCmp(op, constant)
            return ItemCmp(op, position, constant)
        m = _DIM_RE.match(tok.text)
        if m:
            self.advance()
            dim_a = int(m.group(1))
            op = self.cmp_op()
            rhs = self.peek()
            if rhs.kind == "ident":
                m2 = _DIM_RE.match(rhs.text)
                if not m2:
                    self.fail(
                        "coordinates compare to integers or other coordinates",
                        rhs,
                        expected=("integer", "dim<k>"),
                    )
                self.advance()
                return CoordCmp(op, dim_a, int(m2.group(1)))
            if rhs.kind == "int" or (rhs.kind == "op" and rhs.text == "-"):
                return CoordConst(op, dim_a, self.signed_int())
            self.fail(
                "coordinates compare to integers or other coordinates",
                rhs,
                expected=("integer", "dim<k>"),
            )
        self.fail(
            "expected a predicate",
            tok,
            expected=("val", "dim<k>", "not", "true", "false", "("),
        )

    # --- value literals ----------------------------------------------------

    def literal(self) -> Value:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.peek()
            if inner.kind == "int":
                self.advance()
                return IntV(-inner.value)
            if inner.kind == "float":
                self.advance()
                return FloatV(-inner.value)
            if inner.kind == "ident" and inner.text == "inf":
                self.advance()
                return FloatV(float("-inf"))
            self.fail("expected a number after '-'", inner, expected=("number",))
        if tok.kind == "int":
            self.advance()
            return IntV(tok.value)
        if tok.kind == "float":
            self.advance()
            return FloatV(tok.value)
        if tok.kind == "string":
            self.advance()
            return StrV(tok.value)
        if tok.kind == "ident":
            if tok.text == "undef":
                self.advance()
                return UNDEF
            if tok.text == "inf":
                self.advance()
                return FloatV(float("inf"))
            if tok.text == "tuple":
                with self.nested(tok):
                    self.advance()
                    self.expect_op("(")
                    items = [self.literal()]
                    while self.at_op(","):
                        self.advance()
                        items.append(self.literal())
                    self.expect_op(")")
                return TupleV(tuple(items))
            if tok.text == "array":
                with self.nested(tok):
                    return self.array_literal()
        self.fail(
            "expected a value literal",
            tok,
            expected=("number", "string", "undef", "tuple(", "array{"),
        )

    def array_literal(self) -> ArrayV:
        tok = self.peek()
        self.advance()  # "array"
        self.expect_op("{")
        if not self.at_ident("arity"):
            self.fail("expected 'arity'", self.peek(), expected=("arity",))
        self.advance()
        self.expect_op("=")
        arity = self.expect_int("the array's arity")
        pairs = []
        while self.at_op(";"):
            self.advance()
            coords = [self.signed_int()]
            while self.at_op(","):
                self.advance()
                coords.append(self.signed_int())
            self.expect_op("->")
            pairs.append((tuple(coords), self.literal()))
        self.expect_op("}")
        try:
            return ArrayV(Array(arity, pairs))
        except (ArracError, ValueError) as exc:
            raise ParseError(str(exc), tok.line, tok.column) from exc


def parse(text: str) -> ast.Expr:
    """Parse a complete query; trailing input is an error."""
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail("unexpected input after the expression", tok, expected=("end of input",))
    return node


def parse_predicate(text: str) -> Predicate:
    """Parse a bare predicate, e.g. for command-line partition schemes."""
    p = _Parser(text)
    node = p.pred()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail("unexpected input after the predicate", tok, expected=("end of input",))
    return node


def parse_slices(text: str) -> tuple:
    """Parse a bare slice list like ``[{0}, {1, 2}]``."""
    p = _Parser(text)
    groups = p.slices()
    tok = p.peek()
    if tok.kind != "eof":
        p.fail("unexpected input after the slice list", tok, expected=("end of input",))
    return groups
