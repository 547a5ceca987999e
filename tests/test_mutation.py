"""Seeded mutation fuzz of the two text grammars, the operators and placements.

Every mutant of a valid `.arr` text or query text must either parse or fail
with an ArracError; any other exception is an engine bug (exit code 1 in the
CLI).  Every exported operator must succeed or fail with an ArracError too,
given a dimension, position or constant at the edge of its range, or a
stranger in its index, join-pair or slice container.  Random and mutated queries, their constants and nesting pushed to the
limits, must run through ``arrac query`` with a documented exit code, what
exits 0 must print the evaluated result, and a catalog whose memo vouches
for every file must answer each query as one without a memo does.  Every mutant of a placement, its manifest or the bytes of one fragment
file, must reassemble or exit with a documented code, and what ``reassemble --verify``
accepts must rebuild the source array; a manifest whose predicates name a
dimension past its ``origin_arity`` must exit 5.  Rerun a failure with the printed seed.
"""

import contextlib
import io
import itertools
import json
import random
import re
import string
import sys

import pytest

from arrac import (
    UNDEF, Array, Cmp, CoordConst, IntV, Placement, anti_join, arrfile, cli, equi_join, holds,
    invert, join_condition, partition_horizontal, partition_vertical, project, push_select, qlang,
    record_steps, select, semi_join, transform, union,
)
from arrac.arrfile import MAX_NESTING
from arrac.core import Record
from arrac.errors import ArracError, PredicateArity
from arrac.predicates import check_dims
from arrac.qlang import ast, parse, parse_predicate, print_expr, print_pred

from randgen import (
    rand_array, rand_expr, rand_index, rand_partition_preds, rand_pred, rand_slices, rand_steps,
    rand_tuple_array,
)

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


# --- the operators at the limits ----------------------------------------------

OPERATOR_ROUNDS = 300
BIG = 10**5000  # past the digits str() converts


def rebuilt(obj, swap):
    """``obj`` with ``swap`` applied to each int in it, in order: in a
    record's fields, a tuple, a list or a set, rebuilt through their
    constructors."""
    if type(obj) is int:
        return swap(obj)
    if isinstance(obj, Record):
        cls, fields = obj.__reduce__()
        return cls(*(rebuilt(field, swap) for field in fields))
    if isinstance(obj, (tuple, list, set, frozenset)):
        return type(obj)(rebuilt(item, swap) for item in obj)
    return obj


def in_place_of(rng: random.Random, arg, stranger, depth: int):
    """``arg`` with itself (depth 0), one of its items (1) or one item of an
    item (2) replaced by ``stranger``, as deep as ``arg`` nests."""
    if not depth or not isinstance(arg, (tuple, list, set, frozenset)) or not arg:
        return stranger
    items = list(arg)
    k = rng.randrange(len(items))
    items[k] = in_place_of(rng, items[k], stranger, depth - 1)
    return type(arg)(items)


def to_the_edge(rng: random.Random, arg, arity: int, container: bool):
    """``arg`` with one dimension, position or constant at an edge of its
    range or, for an ``indexes``, ``on`` or ``slices`` container, with the
    container, an item or an item's item replaced by a predicate or by a
    record that holds ``BIG``."""
    if container and rng.random() < 0.3:
        stranger = rng.choice([rand_pred(rng, arity), IntV(BIG), CoordConst(Cmp.EQ, 0, BIG)])
        return in_place_of(rng, arg, stranger, rng.randrange(3))
    ints = []
    rebuilt(arg, lambda i: ints.append(i) or i)
    if not ints:
        return arg
    edge = rng.choice([-1, arity, arity + 1, True, 2**64, BIG, -BIG])
    k, seen = rng.randrange(len(ints)), itertools.count()
    return rebuilt(arg, lambda i: edge if next(seen) == k else i)


def operator_calls(rng: random.Random) -> tuple:
    """An arity, and (operator, its arguments, the position of its container
    or None) for each operator, on arguments of that arity that fit one
    another."""
    arity = rng.randint(1, 3)
    a, b = rand_array(rng, arity, max_size=6), rand_array(rng, rng.randint(1, 3), max_size=6)
    # as wide as it is deep, so that "the arity" is also one position past the last
    t = rand_tuple_array(rng, arity, arity, max_size=6)
    steps, pred, preds = rand_steps(rng, arity), rand_pred(rng, arity), rand_partition_preds(rng, arity)
    on = [(rng.randrange(arity), rng.randrange(b.arity)) for _ in range(rng.randint(0, 2))]
    indexes = [*sorted(a.support())[:2], rand_index(rng, arity)]
    slices = rand_slices(rng, arity)
    try:
        recorded = record_steps(a, steps)
        support = transform(a, steps).support()
    except ArracError:
        recorded, support = steps, a.support()
    value = next((v for _, v in a.items()), UNDEF)
    placement = rng.choice([partition_vertical(a, preds), partition_horizontal(t, slices)])
    return arity, [
        (select, (a, pred), None),
        (project, (a, indexes), 1),
        (transform, (a, steps), None),
        (record_steps, (a, steps), None),
        (invert, (recorded, support), None),
        (equi_join, (a, b, on), 2),
        (semi_join, (a, b, on), 2),
        (anti_join, (a, b, on), 2),
        (join_condition, (a, on), 1),
        (union, (a, b), None),
        (holds, (pred, rand_index(rng, arity), value), None),
        (partition_vertical, (a, preds), None),
        (partition_horizontal, (t, slices), 1),
        (push_select, (placement, pred), None),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operators_at_the_limits_succeed_or_raise_arrac_errors(seed):
    # the records' constructors take every edge drawn here; the operators
    # then raise ArracError or nothing
    rng = random.Random(seed)
    for round_ in range(OPERATOR_ROUNDS):
        arity, calls = operator_calls(rng)
        for operator, args, container in calls:
            spots = [k for k, arg in enumerate(args) if not isinstance(arg, (Array, Placement))]
            if spots:  # union takes arrays only
                k = rng.choice(spots)
                edge = to_the_edge(rng, args[k], arity, k == container)
                args = (*args[:k], edge, *args[k + 1:])
            try:
                operator(*args)
            except ArracError:
                pass
            except Exception as exc:
                pytest.fail(f"seed {seed}, round {round_}: {operator.__name__} raised {exc!r}")


# --- queries through the CLI --------------------------------------------------

QUERY_ROUNDS = 300
HUGE = "9" * sys.get_int_max_str_digits()  # the most digits int() converts
_INT_RE = re.compile(r"(?<![\w.])[0-9]+(?![\w.])")
# the names rand_expr draws
_NAME_RE = re.compile(r'(?<![\w"])(?:A|B|M|T|data_1|x)(?![\w"])')


def to_the_limits(rng: random.Random, text: str) -> str:
    """``text`` with its integers, coordinates or nesting at the limits."""
    roll = rng.random()
    if roll < 0.2:
        return _INT_RE.sub(lambda m: HUGE if rng.random() < 0.3 else m[0], text)
    if roll < 0.6:  # arrays whose coordinates are past int()'s digit limit
        far = f"translate(0, {HUGE}), translate(0, {HUGE})"
        return _NAME_RE.sub(
            lambda m: f"transform({m[0]}, [{far}])" if rng.random() < 0.5 else m[0], text
        )
    k = MAX_NESTING - rng.randint(0, 3)
    if roll < 0.8:
        return "select(" * k + text + ", true)" * k
    return f"select({text}, val = {'tuple(' * k}1{')' * k})"


def well_typed(rng: random.Random, catalog) -> str:
    """The text of a rand_expr tree, not a bare name, that evaluates to an
    array over ``catalog``, if one of ten draws is, else of the last draw."""
    for _ in range(10):
        expr = rand_expr(rng, 3)
        try:
            if not isinstance(expr, ast.Ref) and qlang.typecheck(expr, catalog).sort == "array":
                break
        except ArracError:
            pass
    return print_expr(expr)


@pytest.fixture(scope="module")
def query_catalog(tmp_path_factory):
    rng = random.Random(0)
    deep = 1
    # one tuple( short of the most loads reads: one cross reaches the limit,
    # a second passes it
    for _ in range(MAX_NESTING - 1):
        deep = (deep,)
    # four dimensions fit every predicate rand_expr draws
    catalog = {name: rand_array(rng, arity=4, max_size=6) for name in ("A", "B", "M", "data_1")}
    catalog["T"] = rand_tuple_array(rng, arity=1, width=3, max_size=6)
    catalog["x"] = Array(1, [((0,), deep)])
    db = tmp_path_factory.mktemp("queries")
    for name, array in catalog.items():
        arrfile.save(db / f"{name}.arr", array)
    return db, qlang.Catalog(catalog)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_queries_exit_as_documented_and_print_their_result(seed, query_catalog):
    db, catalog = query_catalog
    rng = random.Random(seed)
    printed = 0
    for round_ in range(QUERY_ROUNDS):
        text = well_typed(rng, catalog)
        if rng.random() < 0.6:
            text = to_the_limits(rng, text)
        if rng.random() < 0.3:
            text = mutate(rng, text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["query", "-c", str(db), "--", text])
        where = f"seed {seed}, round {round_}: {text[:300]!r}: {err.getvalue()[:300]}"
        assert code in (0, 2, 3, 4, 5), where
        if code:
            assert out.getvalue() == "", where
            continue
        result = qlang.evaluate(parse(text), catalog)
        assert out.getvalue() == arrfile.dumps(result), where
        assert arrfile.loads(out.getvalue())[0] == result, where
        printed += 1
    assert printed, "no query exited 0; the oracle never ran"


def query_through_the_cli(db, text) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["query", "-c", str(db), "--", text])
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_a_warm_catalog_answers_as_a_cold_one(seed, query_catalog, tmp_path):
    # the warm copy's memo vouches for every file, so each query parses only
    # the arrays it names there; the cold copy parses every file each time
    db, catalog = query_catalog
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    for copy in (cold, warm):
        copy.mkdir()
        for path in db.glob("*.arr"):
            (copy / path.name).write_bytes(path.read_bytes())
    query_through_the_cli(warm, "x")
    memo = (warm / ".arrac-parsed").read_text()
    assert memo.count(".arr ") == len(catalog)
    rng = random.Random(seed)
    printed = 0
    for round_ in range(QUERY_ROUNDS):
        text = well_typed(rng, catalog)
        if rng.random() < 0.6:
            text = to_the_limits(rng, text)
        if rng.random() < 0.3:
            text = mutate(rng, text)
        (cold / ".arrac-parsed").unlink(missing_ok=True)
        code, out = query_through_the_cli(cold, text)
        where = f"seed {seed}, round {round_}: {text[:300]!r}"
        assert query_through_the_cli(warm, text) == (code, out), where
        if code == 0:
            assert out == arrfile.dumps(qlang.evaluate(parse(text), catalog)), where
            printed += 1
    assert printed, "no query exited 0; the oracle never ran"
    assert (warm / ".arrac-parsed").read_text() == memo


# --- placements through the CLI ----------------------------------------------

PLACEMENT_ROUNDS = 100
# JSON values of every type, names of the catalog's arrays and fragment
# files, paths that leave the directory or name no file, and strings that
# cannot name a file at all.
VALUES = (
    None, True, False, 0, 1, 2, 3, -1, 10**18, 2.5, "", "M", "T", "f0", "shard-9",
    "no such", "M.f0.arr", "T.f1.arr", "M.manifest.json", "../h/T.f0.arr",
    "../v/M.f1.arr", "missing.arr", ".", "\x00", "\ud800", [], [0], [[0]],
    [[1], [0, 2]], ["dim0 = 0"], {}, {"id": "f9"},
)


def restate(doc: dict) -> None:
    """Print the expression that the document's source and scheme state, so
    the document says one scheme again; leave it when they state none."""
    try:
        ref = ast.Ref(doc["source"])
        if doc["kind"] == "vertical":
            node = ast.VPartition(ref, tuple(parse_predicate(p) for p in doc["predicates"]))
        else:
            node = ast.HPartition(ref, tuple(tuple(sorted(set(s))) for s in doc["slices"]))
        doc["expression"] = print_expr(node)
    except (ArracError, KeyError, TypeError):
        pass


def mutate_scheme(rng: random.Random, doc: dict, catalog: dict) -> None:
    source = doc.get("source")
    array = catalog.get(source, catalog["M"]) if isinstance(source, str) else catalog["M"]
    if doc.get("kind") == "vertical":
        preds = rand_partition_preds(rng, array.arity)
        if rng.random() < 0.3:
            preds[rng.randrange(len(preds))] = rand_pred(rng, array.arity)
        doc["predicates"] = [print_pred(p) for p in preds]
        if rng.random() < 0.3:
            doc["predicates"][-1] = mutate(rng, doc["predicates"][-1])
    else:
        doc["slices"] = [sorted(s) for s in rand_slices(rng, rng.randint(1, 4))]
    if rng.random() < 0.5:
        restate(doc)


def past_its_arity(doc: dict) -> bool:
    """Whether a vertical manifest's predicates parse and one of them names a
    dimension that its integer ``origin_arity`` does not have."""
    arity = doc.get("origin_arity")
    if doc.get("kind") != "vertical" or type(arity) is not int:
        return False
    try:
        for pred in [parse_predicate(text) for text in doc["predicates"]]:
            check_dims(pred, arity)
    except PredicateArity:
        return True
    except (ArracError, KeyError, TypeError):
        pass
    return False


def mutate_manifest(rng: random.Random, doc: dict, catalog: dict) -> None:
    fragments = doc["fragments"] if isinstance(doc.get("fragments"), list) else []
    entries = [e for e in fragments if isinstance(e, dict)]
    op = rng.randrange(11)
    if op == 0:
        doc[rng.choice(sorted(doc))] = rng.choice(VALUES)
    elif op == 1:
        del doc[rng.choice(sorted(doc))]
    elif op == 2 and entries:
        entry = rng.choice(entries)
        key = rng.choice(("id", "file", "shard", "expr", "extra"))
        if key in entry and rng.random() < 0.3:
            del entry[key]
        else:
            entry[key] = rng.choice(VALUES)
    elif op == 3:
        mutate_scheme(rng, doc, catalog)
    elif op == 4:
        doc["source"] = rng.choice(("M", "T", "M2", "no such", "", 7, None))
        if rng.random() < 0.5:
            restate(doc)
    elif op == 5:
        text = doc.get("expression")
        doc["expression"] = mutate(rng, text) if isinstance(text, str) else "T"
    elif op == 6 and len(entries) > 1:
        a, b = rng.sample(entries, 2)
        key = rng.choice(("id", "file", "shard"))
        if rng.random() < 0.5:
            a[key], b[key] = b.get(key), a.get(key)
        else:
            a[key] = b.get(key)
    elif op == 7:
        doc["origin_arity"] = rng.choice((0, 1, 2, 3, -1, True, "2", 10**6))
    elif op == 8 and fragments:
        roll = rng.randrange(3)
        if roll == 0:
            fragments.pop(rng.randrange(len(fragments)))
        elif roll == 1:
            fragments.append(json.loads(json.dumps(rng.choice(fragments))))
        else:
            fragments.reverse()
    elif op == 9:
        # a scheme that still agrees with the expression: only shards move
        for entry in entries:
            entry["shard"] = rng.choice(("a", "b", "shard-0"))
    elif op == 10 and isinstance(doc.get("predicates"), list) and doc["predicates"]:
        # a predicate on a dimension the source lacks, in the expression too
        i = rng.randrange(len(doc["predicates"]))
        doc["predicates"][i] = f"dim{rng.randint(2, 9)} = 0"
        restate(doc)


@pytest.fixture(scope="module")
def placements(tmp_path_factory):
    rng = random.Random(0)
    root = tmp_path_factory.mktemp("placements")
    catalog = {
        "M": rand_array(rng, arity=2, max_size=12),
        "T": rand_tuple_array(rng, arity=1, width=3, max_size=8),
    }
    (root / "db").mkdir()
    for name, array in catalog.items():
        arrfile.save(root / "db" / f"{name}.arr", array)
    runs = {
        "v": ["vpartition", "M", "--by", "dim0 < 0", "--by", "dim0 >= 0 and dim1 < 2",
              "--by", "dim0 >= 0 and dim1 >= 2"],
        "h": ["hpartition", "T", "--slices", "[{0}, {1, 2}]"],
    }
    manifests = {}
    for out, (command, name, *scheme) in runs.items():
        argv = [command, "-c", str(root / "db"), "-o", str(root / out), name, *scheme]
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        manifests[out] = root / out / f"{name}.manifest.json"
    return root / "db", catalog, manifests


def reassemble(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_placement_mutants_exit_as_documented(seed, placements):
    db, catalog, manifests = placements
    rng = random.Random(seed)
    pristine = {k: path.read_text(encoding="utf-8") for k, path in manifests.items()}
    verified = past_arity = 0
    for round_ in range(PLACEMENT_ROUNDS):
        kind = rng.choice(sorted(manifests))
        path = manifests[kind]
        doc = json.loads(pristine[kind])
        fragment, fragment_bytes = None, None
        if rng.random() < 0.25:
            fragment = path.parent / rng.choice(doc["fragments"])["file"]
            fragment_bytes = data = fragment.read_bytes()
            if rng.random() < 0.5:
                i = rng.randrange(len(data))
                fragment.write_bytes(data[:i] + bytes([rng.randrange(256)]) + data[i + 1:])
            else:
                fragment.write_text(mutate(rng, data.decode("utf-8")), encoding="utf-8")
        if fragment is None or rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                mutate_manifest(rng, doc, catalog)
        text = json.dumps(doc)
        path.write_text(text, encoding="utf-8")
        over = past_its_arity(doc)
        past_arity += over
        try:
            for verify in ((), ("--verify",)):
                code, out = reassemble(["reassemble", "-c", str(db), str(path), *verify])
                where = f"seed {seed}, round {round_}, {verify}: {text}"
                assert code in (0, 2, 3, 4, 5), where
                if over:
                    assert code == 5, where
                if verify and code == 0:
                    verified += 1
                    source = catalog.get(doc.get("source"))
                    assert source is not None and out == arrfile.dumps(source), where
        finally:
            if fragment is not None:
                fragment.write_bytes(fragment_bytes)
            path.write_text(pristine[kind], encoding="utf-8")
    assert verified, "no mutant got through --verify; the oracle never ran"
    assert past_arity, "no mutant named a dimension past its origin_arity"
