"""Seeded mutation fuzz of the two text grammars.

Every mutant of a valid `.arr` text or query text must either parse or fail
with an ArracError; any other exception is an engine bug (exit code 1 in the
CLI).  Rerun a failure with the printed seed.
"""

import random
import string

import pytest

from arrac import arrfile
from arrac.errors import ArracError
from arrac.qlang import parse, print_expr, print_pred

from randgen import rand_array, rand_expr, rand_pred

# Unicode digits that str.isdigit() accepts (and int() rejects or reads),
# letters, non-ASCII space, and the characters each grammar treats specially.
SPECIAL = "²٣½①Ⅻéλ \\\"#_-.,;:(){}[]<>=!"
SNIPPETS = (
    "int:", "float:", 'str:"', "undef", "tuple(", "array{arity=", " -> ", "; ",
    '"\\q', "\\", "1e5", "1e", "1.", "inf", "nan", "e+", "# c", "\n", "val[0]",
    "dim1", "!=", "<=", "->", "²", "٣",
)
ALPHABET = string.printable + SPECIAL * 3
ROUNDS = 3000


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        n = len(text)
        i = rng.randint(0, n)
        op = rng.randrange(6) if n else 0
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            i = rng.randrange(n)
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif op == 2:
            text = text[:i] + text[i + rng.randint(1, 6):]
        elif op == 3:
            a = rng.randint(0, n)
            text = text[:i] + text[a:a + rng.randint(1, 20)] + text[i:]
        elif op == 4:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        else:
            text = text[:i]
    return text


def fuzz(seed: int, corpus: list, parse_text) -> None:
    rng = random.Random(seed)
    for _ in range(ROUNDS):
        text = mutate(rng, rng.choice(corpus))
        try:
            parse_text(text)
        except ArracError:
            pass
        except Exception as exc:
            pytest.fail(f"seed {seed}: {text!r} raised {exc!r}")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_arr_mutants_parse_or_raise_arrac_errors(seed):
    rng = random.Random(seed)
    corpus = [arrfile.dumps(rand_array(rng, max_size=4)) for _ in range(200)]
    fuzz(seed, corpus, arrfile.loads)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_mutants_parse_or_raise_arrac_errors(seed):
    rng = random.Random(seed)
    corpus = [print_expr(rand_expr(rng, 3)) for _ in range(150)]
    corpus += [f"select(M, {print_pred(rand_pred(rng, 3))})" for _ in range(150)]
    corpus += [
        'select(M, val = "a\\"b\\\\c\\n" or val[1] >= 1.5e-3) # note',
        "union(A,\n  select(B, dim0 != -2)) # end\n",
    ]
    fuzz(seed, corpus, parse)
