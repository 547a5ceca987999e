import ast
import math
import random
import sys
from pathlib import Path

import pytest

from arrac import Array, ArrayV, DimensionLabels, FloatV, StrV, TupleV, UNDEF, as_value, manifest
from arrac.arrfile import (
    MAX_NESTING, dumps, load, loads, parse_value, save, too_many_digits, write_atomic,
)
from arrac.errors import ArracError, FormatError
from arrac.qlang import Catalog, evaluate

from randgen import rand_array, rand_expr, rand_value

M_TEXT = (
    "arrac v1 arity=2 count=4\n"
    '0,0 -> str:"a"\n'
    '0,1 -> str:"b"\n'
    '1,0 -> str:"c"\n'
    '1,1 -> str:"d"\n'
)

M = Array(2, [((0, 0), "a"), ((0, 1), "b"), ((1, 0), "c"), ((1, 1), "d")])


def test_reference_matrix_serializes_to_frozen_bytes():
    assert dumps(M) == M_TEXT


def test_reference_matrix_loads_back():
    arr, labels = loads(M_TEXT)
    assert arr.arity == 2
    assert len(arr) == 4
    assert arr[(1, 1)] == StrV("d")
    assert labels is None


def test_empty_body_any_arity():
    arr, _ = loads("arrac v1 arity=3 count=0\n")
    assert arr.arity == 3 and len(arr) == 0
    assert dumps(arr) == "arrac v1 arity=3 count=0\n"


def test_round_trip_random_arrays():
    rng = random.Random(83)
    for _ in range(100):
        a = rand_array(rng)
        out, _ = loads(dumps(a))
        assert out == a


def test_dumps_is_deterministic():
    rng = random.Random(89)
    a = rand_array(rng, max_size=20)
    assert dumps(a) == dumps(a)
    # order of construction does not matter
    shuffled = list(a.items())
    rng.shuffle(shuffled)
    assert dumps(Array(a.arity, shuffled)) == dumps(a)


def test_body_is_in_lexicographic_index_order():
    a = Array(2, [((1, 0), 1), ((0, 5), 2), ((0, 2), 3), ((-1, 9), 4)])
    body = dumps(a).splitlines()[1:]
    assert [line.split(" -> ")[0] for line in body] == ["-1,9", "0,2", "0,5", "1,0"]


def test_labels_round_trip():
    labels = DimensionLabels({1: {"id": 0, "temp": 1}, 0: {"row": 0}})
    a = Array(2, [((0, 0), 1), ((0, 1), 2.5)])
    text = dumps(a, labels)
    lines = text.splitlines()
    assert lines[1] == "label dim=0 0=row"
    assert lines[2] == "label dim=1 0=id 1=temp"
    out, out_labels = loads(text)
    assert out == a
    assert out_labels == labels
    # a long label line loads in time linear in its labels
    wide = DimensionLabels({0: {f"c{k}": k for k in range(20_000)}})
    assert loads(dumps(Array(1), wide))[1] == wide
    # no label map dumps a line that loads refuses: the map refuses a dim or
    # coordinate a label line cannot spell, dumps one that does not fit
    for dim, coord in ((-1, 0), (True, 0), ("1", 0), (0, "x"), (0, True), (0, 1.0)):
        with pytest.raises(ValueError):
            DimensionLabels({dim: {"a": coord}})
    with pytest.raises(FormatError, match=r"^label dim 5 outside arity 1$"):
        dumps(Array(1), DimensionLabels({5: {"a": 0}}))
    with pytest.raises(FormatError, match=rf"^{too_many_digits()} in the label line of dim 0$"):
        dumps(Array(1), DimensionLabels({0: {"a": 10**5000}}))


def test_value_tags_round_trip():
    a = Array(
        1,
        [
            ((0,), 42),
            ((1,), -7),
            ((2,), "with \"quotes\" and\nnewline"),
            ((3,), None),
            ((4,), (1, "x", None)),
            ((5,), Array(2, [((0, 0), 1.5)])),
        ],
    )
    out, _ = loads(dumps(a))
    assert out == a
    assert out[(3,)] is UNDEF


def test_special_floats_round_trip():
    a = Array(
        1,
        [
            ((0,), 0.0),
            ((1,), -0.0),
            ((2,), math.inf),
            ((3,), -math.inf),
            ((4,), 1e-9),
            ((5,), 123456789.123456789),
        ],
    )
    out, _ = loads(dumps(a))
    assert out == a
    assert out[(1,)] == FloatV(-0.0)
    assert out[(1,)] != FloatV(0.0)


def test_random_values_round_trip_through_value_syntax():
    rng = random.Random(97)
    for _ in range(300):
        v = as_value(rand_value(rng))
        text = dumps(Array(1, [((0,), v)])).splitlines()[1].split(" -> ", 1)[1]
        assert parse_value(text) == v


def test_bad_header_reports_line_1():
    for text in ("", "arrac v2 arity=1 count=0\n", "arrac v1 arity=0 count=0\n",
                 "arrac v1 count=0 arity=1\n", "arrac v1 arity=x count=0\n"):
        with pytest.raises(FormatError) as err:
            loads(text)
        assert err.value.line == 1


def test_count_mismatch():
    with pytest.raises(FormatError):
        loads('arrac v1 arity=1 count=2\n0 -> int:1\n')


def test_blank_body_line_reports_its_number():
    with pytest.raises(FormatError) as err:
        loads('arrac v1 arity=1 count=2\n0 -> int:1\n\n')
    assert err.value.line == 3


def test_missing_arrow_reports_its_line():
    with pytest.raises(FormatError) as err:
        loads('arrac v1 arity=1 count=1\n0 int:1\n')
    assert err.value.line == 2


def test_garbage_value_reports_its_line():
    # numbers take ASCII digits only; "\u00b2" isdigit() but int() rejects it
    for body in ("0 -> wat:1", "0 -> int:\u00b2", "\u00b2 -> int:1", "0 -> int:\u0663",
                 "0 -> float:1e", '0 -> str:"a\\q"', '0 -> str:"ab', "0 -> tuple(int:1",
                 "0 -> int:" + "9" * 5000, "9" * 5000 + " -> int:1",
                 "0 -> array{arity=1; " + "9" * 5000 + " -> int:1}"):
        with pytest.raises(FormatError) as err:
            loads(f"arrac v1 arity=1 count=1\n{body}\n")
        assert err.value.line == 2
    with pytest.raises(FormatError):
        loads('arrac v1 arity=1 count=1\n0 -> int:1 extra\n')
    with pytest.raises(FormatError):
        loads('arrac v1 arity=1 count=1\n0 -> float:nan\n')


def test_integer_past_the_digit_limit_names_its_column():
    huge = "9" * 5000
    for body, column in ((f"0 -> int:{huge}", 5), (f"{huge} -> int:1", 1),
                         (f"0 -> array{{arity={huge}; 0 -> int:1}}", 13)):
        with pytest.raises(FormatError) as err:
            loads(f"arrac v1 arity=1 count=1\n{body}\n")
        assert err.value.line == 2
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == f"integer has more than {limit} digits at column {column}"


def test_header_and_label_numbers_take_ascii_digits_only():
    # int() alone would accept all of these: other decimal digits, a plus
    # sign, an underscore, surrounding whitespace
    for text, line in (("arrac v1 arity=\u0662 count=0\n", 1),
                       ("arrac v1 arity=1 count=+0\n", 1),
                       ("arrac v1 arity=1 count=0\t\n", 1),
                       (f"arrac v1 arity=1 count={'9' * 5000}\n", 1),
                       ("arrac v1 arity=1 count=0\nlabel dim=\u0660 1=x\n", 2),
                       ("arrac v1 arity=1 count=0\nlabel dim=0 1_0=x\n", 2),
                       (f"arrac v1 arity=1 count=0\nlabel dim=0 {'9' * 5000}=x\n", 2)):
        with pytest.raises(FormatError) as err:
            loads(text)
        assert err.value.line == line
    # the combined input from the report, and a negative label coordinate,
    # which stays valid
    with pytest.raises(FormatError):
        loads("arrac v1 arity=\u0662 count=+0\nlabel dim=\u0660 1_0=x\n")
    _, labels = loads("arrac v1 arity=1 count=0\nlabel dim=0 -3=x\n")
    assert labels.coord_of(0, "x") == -3


def test_wrong_index_width_is_a_format_error_at_its_line():
    with pytest.raises(FormatError, match=r"index \(0,\) has 1 coordinates") as err:
        loads('arrac v1 arity=2 count=2\n0,0 -> int:1\n0 -> int:1\n')
    assert err.value.line == 3


def test_conflicting_duplicate_index_is_a_format_error_at_the_later_line():
    text = 'arrac v1 arity=1 count=3\n0 -> int:1\n1 -> int:5\n0 -> int:2\n'
    with pytest.raises(FormatError, match=r"index \(0,\) is bound to two different values") as err:
        loads(text)
    assert err.value.line == 4


def test_conflicting_index_in_a_nested_array_is_a_format_error_at_its_line():
    text = 'arrac v1 arity=1 count=2\n0 -> int:1\n1 -> array{arity=1; 0 -> int:1; 0 -> int:2}\n'
    with pytest.raises(FormatError, match=r"index \(0,\) bound to two different values") as err:
        loads(text)
    assert err.value.line == 3


def test_repeated_index_in_a_nested_array_is_a_format_error_at_its_line():
    # identical entries, which the top-level body refuses too
    text = 'arrac v1 arity=1 count=2\n0 -> int:1\n1 -> array{arity=1; 0 -> int:1; 0 -> int:1}\n'
    with pytest.raises(FormatError, match=r"^array value repeats an index at column 1$") as err:
        loads(text)
    assert err.value.line == 3


def test_identical_duplicate_lines_are_malformed():
    text = 'arrac v1 arity=1 count=2\n0 -> int:1\n0 -> int:1\n'
    with pytest.raises(FormatError):
        loads(text)


def test_bad_label_lines():
    for label_line in ("label x", "label dim=z 0=a", "label dim=0 0=a 0=b",
                       "label dim=0 0=a 1=a", "label dim=5 0=a",
                       # names the label map refuses: an "=" or whitespace
                       "label dim=0 0=a=b", "label dim=0 0=a\tb"):
        with pytest.raises(FormatError):
            loads(f"arrac v1 arity=1 count=0\n{label_line}\n")


def _label_candidates():
    """Every whitespace code point, "=", and a spread over the rest of
    Unicode, surrogates included; each alone and inside a name."""
    points = {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    points |= {ord("="), ord("*"), ord(","), ord('"'), 0, 0x7F, 0xFEFF, 0xD800, 0xDFFF}
    points |= set(range(0, sys.maxunicode + 1, 257))
    return [text for c in sorted(points) for text in (chr(c), f"x{chr(c)}y")]


def test_label_maps_and_label_lines_accept_the_same_labels():
    for label in _label_candidates():
        try:
            labels = DimensionLabels({0: {label: 3}})
        except ValueError:
            labels = None
        try:
            loaded = loads(f"arrac v1 arity=1 count=0\nlabel dim=0 3={label}\n")[1]
        except FormatError:
            loaded = None
        assert (labels is None) == (loaded is None), repr(label)
        if labels is not None:
            assert loaded == labels
            assert loads(dumps(Array(1, []), labels))[1] == labels, repr(label)


def test_the_exchange_format_imports_only_core_and_errors_from_arrac():
    path = Path(__file__).resolve().parent.parent / "src" / "arrac" / "arrfile.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arrac"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("arrac")}
    assert imported == {"core", "errors"}


def test_save_load_files(tmp_path):
    rng = random.Random(101)
    path = tmp_path / "a.arr"
    a = rand_array(rng, max_size=15)
    save(path, a)
    first = path.read_bytes()
    save(path, a)
    assert path.read_bytes() == first
    out, _ = load(path)
    assert out == a


def test_load_missing_file():
    with pytest.raises(FormatError):
        load("/nonexistent/nope.arr")


def test_values_nest_to_the_limit_and_no_deeper():
    deep = "tuple(" * MAX_NESTING + "int:1" + ")" * MAX_NESTING
    text = f"arrac v1 arity=1 count=1\n0 -> {deep}\n"
    array, _ = loads(text)
    assert dumps(array) == text
    inner = MAX_NESTING - 1
    mixed = "array{arity=1; 0 -> " + "tuple(" * inner + "int:1" + ")" * inner + "}"
    text = f"arrac v1 arity=1 count=1\n0 -> {mixed}\n"
    assert dumps(loads(text)[0]) == text
    for too_deep in ("tuple(" + deep + ")", "array{arity=1; 0 -> " + deep + "}", "tuple(" * 3000):
        with pytest.raises(FormatError) as err:
            loads(f"arrac v1 arity=1 count=1\n0 -> {too_deep}\n")
        assert err.value.line == 2
        assert str(err.value).startswith(f"value nested deeper than {MAX_NESTING} levels at column ")
    # what loads refuses, dumps does not write
    value = array.get((0,))
    for too_deep in (TupleV((value, 1)), ArrayV(Array(2, [((7, 8), value)]))):
        with pytest.raises(FormatError) as err:
            dumps(Array(2, [((0, 0), 1), ((3, 4), too_deep)]))
        assert str(err.value) == f"value nested deeper than {MAX_NESTING} levels at index (3, 4)"


def _round_trips(array) -> bool:
    """loads(dumps(array)) == array, or False when dumps refuses the array."""
    try:
        text = dumps(array)
    except ArracError:
        return False
    assert loads(text)[0] == array
    return True


def test_what_dumps_writes_loads_reads_back():
    rng = random.Random(29)
    for _ in range(200):
        assert _round_trips(rand_array(rng, arity=rng.randint(1, 3)))
    # every array holds a value at the nesting limit at its origin, so a
    # pair that a cross or a join builds from it is nested one level too deep
    deep = 1
    for _ in range(MAX_NESTING):
        deep = TupleV((deep,))
    cat = Catalog()
    for name, arity in {"A": 1, "B": 1, "M": 2, "T": 1, "data_1": 2, "x": 1}.items():
        assoc = dict(rand_array(rng, arity=arity).items())
        assoc[(0,) * arity] = deep
        cat.bind(name, Array(arity, assoc.items()))
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        try:
            result = evaluate(rand_expr(rng, 3), cat)
        except ArracError:
            continue
        if isinstance(result, Array):
            outcomes[_round_trips(result)] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 10, outcomes


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir())


def test_a_write_that_fails_midway_keeps_the_old_file(tmp_path):
    target = tmp_path / "M.arr"
    save(target, M)
    old = target.read_bytes()
    # a lone surrogate cannot be encoded as UTF-8, so the write fails
    with pytest.raises(UnicodeEncodeError):
        save(target, Array(1, [((0,), "fine"), ((1,), "\ud800")]))
    assert target.read_bytes() == old
    assert _leftovers(tmp_path) == ["M.arr"]


def test_a_failed_rename_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "M.arr"
    save(target, M)
    old = target.read_bytes()

    def refuse(src, dst):
        raise OSError("disk went away")
    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(OSError):
        write_atomic(target, "new text\n")
    assert target.read_bytes() == old
    assert _leftovers(tmp_path) == ["M.arr"]


def test_a_manifest_that_fails_to_serialize_keeps_the_old_file(tmp_path):
    target = tmp_path / "M.manifest.json"
    manifest.save(target, {"format": "old"})
    old = target.read_bytes()
    # json.dump used to stream the keys before "zz" into the truncated file
    with pytest.raises(TypeError):
        manifest.save(target, {"format": "new", "zz": object()})
    assert target.read_bytes() == old
    assert _leftovers(tmp_path) == ["M.manifest.json"]
