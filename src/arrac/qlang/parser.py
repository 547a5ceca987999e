"""Recursive-descent parser for the query language.

Shape of the language::

    expr     := NAME | project(expr, indexset) | select(expr, pred)
              | cross(expr, expr) | transform(expr, steps) | union(expr, expr)
              | equijoin(expr, expr, onlist) | semijoin(expr, expr, onlist)
              | antijoin(expr, expr, onlist) | vpartition(expr, pred, ...)
              | hpartition(expr, slices) | reassemble(expr)
    indexset := "{" "}" | "{" "(" int ("," int)* ")" ... "}"
    pred     := orpred ; orpred := andpred ("or" andpred)* ;
                andpred := unary ("and" unary)* ;
                unary := "not" unary | "(" pred ")" | "true" | "false" | atom
    atom     := ("val" ("[" INT "]")? CMP literal) | (dimK CMP (int | dimK))
    steps    := "[" step ("," step)* "]"
    onlist   := "on" "(" (INT ":" INT ("," INT ":" INT)*)? ")"
    slices   := "[" "{" INT ... "}" ("," "{" INT ... "}")* "]"

An operator's arguments are read by the readers of its node's fields (see
``ast.OPERATORS``), and a step's by those of its forms (``ast.STEPS``), so
diagnostics can say what was expected where.  Every comma-separated list
between brackets, from index tuples to ``tuple(...)``, is read by
``_Parser.bracketed``, and both connectives by ``_Parser.pred``.  Literals
cover every value the engine can store: scalars, strings, undef, tuple(...)
and inline array{arity=n; i,j -> value; ...} forms.
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
from . import ast
from .lexer import Token, int_value, tokenize

_DIM_RE = re.compile(r"dim([0-9]+)\Z")

_CMP_TEXTS = ("=", "!=", "<", "<=", ">", ">=")

# The connectives by their word, the loosest binding first.
_CONNECTIVES = (("or", Or), ("and", And))

_SCALARS = {"int": IntV, "float": FloatV, "string": StrV}


def _dim_index(tok: Token) -> Optional[int]:
    """The k of ``tok`` if it reads ``dim<k>``, else None."""
    m = _DIM_RE.match(tok.text)
    return None if m is None else int_value(m[1], tok.line, tok.column)


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

    def repeat(self, read) -> list:
        """``read()``, then again after each ","."""
        items = [read()]
        while self.at_op(","):
            self.advance()
            items.append(read())
        return items

    def bracketed(self, open_: str, read, close: str, empty: bool = False) -> tuple:
        """``read()`` for each item of a ","-separated list between
        ``open_`` and ``close``; with ``empty`` the list may have no items."""
        self.expect_op(open_)
        items = () if empty and self.at_op(close) else self.repeat(read)
        self.expect_op(close)
        return tuple(items)

    def arguments(self, readers) -> list:
        """One argument per reader, separated by ","."""
        args = []
        for k, read in enumerate(readers):
            if k:
                self.expect_op(",")
            args.append(read(self))
        return args

    # --- expressions ----------------------------------------------------

    def expr(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected an expression", tok, expected=("identifier",))
        span = (tok.line, tok.column)
        name = tok.text
        if self.peek(1).kind == "op" and self.peek(1).text == "(":
            if name not in _OPERATORS:
                self.fail(f"unknown operator {name!r}", tok, expected=_OPERATORS)
            cls, readers = _OPERATORS[name]
            with self.nested(tok):
                self.advance()
                self.expect_op("(")
                node = cls(*self.arguments(readers), span)
                self.expect_op(")")
            return node
        self.advance()
        return ast.Ref(name, span)

    # --- literal argument forms ------------------------------------------

    def index_tuple(self) -> tuple:
        return self.bracketed("(", self.signed_int, ")")

    def indexset(self) -> tuple:
        # set literal: order and multiplicity are not meaningful
        return tuple(sorted(set(self.bracketed("{", self.index_tuple, "}", empty=True))))

    def onlist(self) -> tuple:
        if not self.at_ident("on"):
            self.fail("expected an on(...) list", expected=("on",))
        self.advance()
        return self.bracketed("(", self.on_pair, ")", empty=True)

    def on_pair(self) -> tuple:
        a = self.expect_int("a dimension of the left operand")
        self.expect_op(":")
        return a, self.expect_int("a dimension of the right operand")

    def slices(self) -> tuple:
        return self.bracketed("[", self.posset, "]")

    def posset(self) -> tuple:
        positions = self.bracketed("{", lambda: self.expect_int("a tuple position"), "}")
        return tuple(sorted(set(positions)))

    # --- transform steps --------------------------------------------------

    def steps(self) -> tuple:
        return self.bracketed("[", self.step, "]")

    def step(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a transform step", tok, expected=ast.STEPS)
        self.advance()
        self.expect_op("(")
        if tok.text not in _STEPS:
            self.fail(f"unknown transform step {tok.text!r}", tok)
        cls, readers = _STEPS[tok.text]
        out = cls(*self.arguments(readers))
        self.expect_op(")")
        return out

    def table(self, key) -> tuple:
        """``{key: int, ...}`` as (key, int) pairs."""

        def pair():
            k = key()
            self.expect_op(":")
            return k, self.signed_int()

        return self.bracketed("{", pair, "}")

    # --- predicates -------------------------------------------------------

    def pred(self, level: int = 0) -> Predicate:
        """Terms joined by the connective of ``level`` in ``_CONNECTIVES``,
        each term one level further in, past the last a unary predicate."""
        if level == len(_CONNECTIVES):
            return self.unary_pred()
        word, node = _CONNECTIVES[level]
        terms = [self.pred(level + 1)]
        while self.at_ident(word):
            self.advance()
            terms.append(self.pred(level + 1))
        return terms[0] if len(terms) == 1 else node(*terms)

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
        # only an identifier's text can read val or dim<k>
        tok = self.advance()
        if tok.text == "val":
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
        dim_a = _dim_index(tok)
        if dim_a is None:
            self.fail(
                "expected a predicate",
                tok,
                expected=("val", "dim<k>", "not", "true", "false", "("),
            )
        op = self.cmp_op()
        rhs = self.peek()
        if rhs.kind == "int" or (rhs.kind == "op" and rhs.text == "-"):
            return CoordConst(op, dim_a, self.signed_int())
        dim_b = _dim_index(rhs)
        if dim_b is None:
            self.fail(
                "coordinates compare to integers or other coordinates",
                rhs,
                expected=("integer", "dim<k>"),
            )
        self.advance()
        return CoordCmp(op, dim_a, dim_b)

    # --- value literals ----------------------------------------------------

    def literal(self) -> Value:
        tok = self.peek()
        if self.at_op("-"):
            self.advance()
            if self.peek().kind not in ("int", "float") and not self.at_ident("inf"):
                self.fail("expected a number after '-'", expected=("number",))
            n = self.literal()
            return type(n)(-n.value)
        if tok.kind in _SCALARS:
            self.advance()
            return _SCALARS[tok.kind](tok.value)
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
                    items = self.bracketed("(", self.literal, ")")
                return TupleV(items)
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
            coords = self.repeat(self.signed_int)
            self.expect_op("->")
            pairs.append((tuple(coords), self.literal()))
        self.expect_op("}")
        try:
            array = Array(arity, pairs)
        except (ArracError, ValueError) as exc:
            raise ParseError(str(exc), tok.line, tok.column) from exc
        if len(array) != len(pairs):
            raise ParseError("array value repeats an index", tok.line, tok.column)
        return ArrayV(array)


# The reader of each argument form: the operators' field names and the
# steps' forms.
_READERS = {
    "child": _Parser.expr,
    "left": _Parser.expr,
    "right": _Parser.expr,
    "indexes": _Parser.indexset,
    "pred": _Parser.pred,
    "predicates": lambda p: tuple(p.repeat(p.pred)),
    "steps": _Parser.steps,
    "on": _Parser.onlist,
    "slices": _Parser.slices,
    "dim": lambda p: p.expect_int("a dimension"),
    "dims": lambda p: tuple(p.repeat(lambda: p.expect_int("a dimension"))),
    "position": lambda p: p.expect_int("a position"),
    "int": _Parser.signed_int,
    "intmap": lambda p: p.table(p.signed_int),
    "indexmap": lambda p: p.table(p.index_tuple),
}
_OPERATORS = {
    name: (cls, tuple(_READERS[f] for f in ast.ARGS[cls]))
    for name, cls in ast.OPERATORS.items()
}
_STEPS = {
    name: (cls, tuple(_READERS[form] for form in forms))
    for name, (cls, forms) in ast.STEPS.items()
}


def _whole(text: str, read, what: str):
    """Read one ``what`` from ``text`` with ``read``; trailing input is an error."""
    p = _Parser(text)
    node = read(p)
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"unexpected input after the {what}", tok, expected=("end of input",))
    return node


def parse(text: str) -> ast.Expr:
    """Parse a complete query; trailing input is an error."""
    return _whole(text, _Parser.expr, "expression")


def parse_predicate(text: str) -> Predicate:
    """Parse a bare predicate, e.g. for command-line partition schemes."""
    return _whole(text, _Parser.pred, "predicate")


def parse_slices(text: str) -> tuple:
    """Parse a bare slice list like ``[{0}, {1, 2}]``."""
    return _whole(text, _Parser.slices, "slice list")
