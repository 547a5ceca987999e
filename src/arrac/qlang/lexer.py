"""Tokenizer for the query language."""

from __future__ import annotations

import re

from ..arrfile import _STRING, _ints, _string_fault, _unquote
from ..core import Record
from ..errors import FormatError, ParseError

# Alternatives are tried in order: a float before the int it starts with,
# two-character operators before their one-character prefixes.  An identifier
# starts with a letter or "_"; [^\W\d] also admits non-decimal digits such as
# "²", which tokenize rejects.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r]+|#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    r"|(?P<int>[0-9]+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<string>" + _STRING + ")"
    r"|(?P<op>->|[!<>]=|[-(){}\[\],:;=<>])"
)

_DECODE = {"float": float, "string": _unquote}


def int_value(digits: str, line: int, column: int) -> int:
    """The int of an ASCII digit run read at ``line``, ``column``; one with
    more digits than int() converts is a ParseError there."""
    try:
        return _ints(digits, None, None)[0]
    except FormatError as exc:
        raise ParseError(str(exc), line, column) from None


class Token(Record):
    """``kind`` is ident, int, float, string, op or eof; ``value`` is the
    decoded payload of an int, float or string."""

    __slots__ = ("kind", "text", "line", "column", "value")


def tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0
    pos, n = 0, len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        kind = m and m.lastgroup
        if kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            kind = None
        if kind is None:
            message, at = f"unexpected character {text[pos]!r}", pos
            if text[pos] == '"':
                message, at = _string_fault(text, pos)
            raise ParseError(message, line, at - line_start + 1)
        end = m.end()
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind != "space":
            word, column = m.group(), pos - line_start + 1
            if kind == "int":
                value = int_value(word, line, column)
            else:
                decode = _DECODE.get(kind)
                value = decode(word) if decode else None
            tokens.append(Token(kind, word, line, column, value))
        pos = end
    tokens.append(Token("eof", "", line, pos - line_start + 1, None))
    return tokens
