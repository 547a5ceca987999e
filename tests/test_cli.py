import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrac import Array, algebra, arrfile, cli
from arrac.arrfile import MAX_NESTING, DimensionLabels
from arrac.predicates import Cmp, ValueCmp
from arrac.core import UNDEF, StrV

M = Array(2, [((0, 0), "a"), ((0, 1), "b"), ((1, 0), "c"), ((1, 1), "d")])
T = Array(1, [((0,), (1, "x", 2.5)), ((1,), (2, "y", 3.5)), ((2,), (3, "z", 4.5))])


def run(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "arrac", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def db(tmp_path):
    d = tmp_path / "db"
    d.mkdir()
    arrfile.save(d / "M.arr", M)
    arrfile.save(d / "T.arr", T)
    return d


def test_importing_the_cli_skips_what_no_query_needs():
    # dataclasses pulls in inspect, dis and ast; json and csv serve only the
    # partition, reassemble and table commands, and the printer only them and
    # --explain.  Modules the interpreter had loaded before arrac do not count.
    code = (
        "import sys; before = set(sys.modules); import arrac.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "arrac.qlang" in loaded
    assert loaded.isdisjoint(
        {"dataclasses", "inspect", "json", "csv", "arrac.manifest", "arrac.relbridge",
         "arrac.qlang.printer"}
    )


def test_only_the_table_commands_load_the_table_layer(db, tmp_path):
    # one fresh interpreter runs the other commands in turn; the table layer
    # and csv stay unloaded throughout
    out = tmp_path / "out"
    commands = [
        ["query", "-c", db, "-o", tmp_path / "result.arr", "M"],
        ["vpartition", "-c", db, "-o", out, "M", "--by", "dim0 = 0", "--by", "dim0 != 0"],
        ["reassemble", "-c", db, "-o", tmp_path / "whole.arr", "--verify", out / "M.manifest.json"],
        ["load", "-c", db, "--name", "copy", db / "T.arr"],
        ["save", "-c", db, "-o", tmp_path / "saved.arr", "M"],
    ]
    code = (
        "import sys; from arrac import cli\n"
        f"for argv in {[[str(a) for a in argv] for argv in commands]!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(' '.join(m for m in ('arrac.relbridge', 'csv') if m in sys.modules))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "\n"


def test_query_echoes_catalog_file_bytes(db):
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 0
    assert res.stdout == (db / "M.arr").read_text()
    assert res.stderr == ""


def test_query_select_one_association(db):
    res = run("query", "-c", str(db), 'select(M, val = "b")')
    assert res.returncode == 0
    out, _ = arrfile.loads(res.stdout)
    assert dict(out.items()) == {(0, 1): StrV("b")}
    assert out == algebra.select(M, ValueCmp(Cmp.EQ, "b"))


def test_query_output_file(db, tmp_path):
    target = tmp_path / "result.arr"
    res = run("query", "-c", str(db), "-o", str(target), "M")
    assert res.returncode == 0
    assert res.stdout == ""
    assert target.read_text() == arrfile.dumps(M)


def test_parse_error_exits_2_with_caret(db):
    res = run("query", "-c", str(db), "cross(M,")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert "line 1, column 9" in res.stderr
    assert "^" in res.stderr
    assert "expected:" in res.stderr
    res = run("query", "-c", str(db), "select(M, val = array{0 -> 1})")
    assert res.returncode == 2
    assert res.stderr.startswith("error: expected 'arity' (found '0')\n  --> line 1, column 23\n")


def test_unbound_name_exits_3(db):
    res = run("query", "-c", str(db), "cross(M, NOPE)")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "NOPE" in res.stderr


def test_superscript_digit_in_query_exits_2(db, capsys):
    res = run("query", "-c", str(db), "select(M, dim0 = \u00b2)")
    assert res.returncode == 2
    assert "unexpected character" in res.stderr
    # the k of dim<k> is ASCII digits, as an integer literal is
    for query, says, column in (
        ("select(M, dim\u0663 = 0)", "unexpected character '\u0663'", 14),
        ("select(M, dim0 = dim\u0663)", "unexpected character '\u0663'", 21),
    ):
        code, out, err = run_in_process(capsys, "query", "-c", db, query)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {says}\n  --> line 1, column {column}\n")


def test_a_syntax_error_before_a_stray_character_is_reported_first(db, capsys):
    code, out, err = run_in_process(capsys, "query", "-c", db, "select(M, dim0 < ) \u0663")
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: coordinates compare to integers or other coordinates (found ')')\n"
        "  --> line 1, column 18\n"
    )


def test_a_name_in_a_query_is_ascii_as_a_catalog_name_is(db, capsys):
    code, out, err = run_in_process(capsys, "query", "-c", db, "select(M\u00e9, val = 1)")
    assert (code, out) == (2, "")
    assert err.startswith("error: unexpected character '\u00e9'\n  --> line 1, column 9\n")


# int() converts at most sys.get_int_max_str_digits() (4300 by default) digits
HUGE = "9" * 5000


def test_integer_literal_past_the_digit_limit_exits_2(db, capsys):
    res = run("query", "-c", str(db), f"select(M, dim0 = {HUGE})")
    assert res.returncode == 2
    assert "more than" in res.stderr and "line 1, column 18" in res.stderr
    # and so does the k of a dim<k> past the limit, at the name
    for query, column in ((f"select(M, dim{HUGE} = 0)", 11), (f"select(M, dim0 = dim{HUGE})", 18)):
        code, out, err = run_in_process(capsys, "query", "-c", db, query)
        assert (code, out) == (2, "")
        says = f"error: {arrfile.too_many_digits()}\n  --> line 1, column {column}\n"
        assert err.startswith(says)


@pytest.mark.parametrize(
    "body",
    [f"0 -> int:{HUGE}", f"{HUGE} -> int:1", f"0 -> array{{arity={HUGE}; 0 -> int:1}}"],
    ids=["int", "index", "array-arity"],
)
def test_integer_past_the_digit_limit_in_a_catalog_file_exits_5(db, body):
    (db / "bad.arr").write_text(f"arrac v1 arity=1 count=1\n{body}\n", encoding="utf-8")
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 5
    assert "more than" in res.stderr


def test_result_coordinate_past_the_digit_limit_exits_5_and_writes_nothing(db, tmp_path):
    # each offset is legal query text; their sum is a coordinate str() refuses
    n = "9" * sys.get_int_max_str_digits()
    query = f"transform(T, [translate(0, {n}), translate(0, {n})])"
    target = tmp_path / "out.arr"
    for argv in ([], ["-o", str(target)]):
        res = run("query", "-c", str(db), *argv, query)
        assert res.returncode == 5
        assert res.stdout == ""
        assert res.stderr.startswith("error: integer has more than ")
        assert res.stderr.endswith(" digits in body line 1\n")
    assert not target.exists()


# T stands for two translations whose sum is a coordinate past the limit
@pytest.mark.parametrize(
    "query, says",
    [
        ("transform(A, [T, remapdim(0, {0: 1})])", "no table entry for coordinate <more than"),
        ("union(transform(A, [T]), transform(B, [T]))", "union conflict at index (<more than"),
        (
            "transform(transform(C, [T]), [insertdim(0, 0), removedim(1)])",
            "indices (0, <more than",
        ),
    ],
    ids=["remap", "union", "collapse"],
)
def test_error_naming_a_coordinate_past_the_digit_limit_exits_4(db, query, says):
    arrfile.save(db / "A.arr", Array(1, [((0,), 1)]))
    arrfile.save(db / "B.arr", Array(1, [((0,), 2)]))
    arrfile.save(db / "C.arr", Array(1, [((0,), 1), ((1,), 2)]))
    n = "9" * sys.get_int_max_str_digits()
    res = run("query", "-c", str(db), query.replace("T", f"translate(0, {n}), translate(0, {n})"))
    assert res.returncode == 4
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {says}")
    assert " digits ...999998>" in res.stderr.partition("\n")[0]


def test_array_literal_repeating_an_index_exits_2_at_the_literal(db):
    res = run("query", "-c", str(db), "select(M, val = array{arity=1; 0 -> 1; 0 -> 1})")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: array value repeats an index\n  --> line 1, column 17\n")


def test_static_arity_error_exits_3(db):
    res = run("query", "-c", str(db), "union(M, cross(M, M))")
    assert res.returncode == 3


def test_placement_query_is_rejected(db):
    res = run("query", "-c", str(db), "vpartition(M, dim0 = 0, dim0 != 0)")
    assert res.returncode == 3
    assert "placement" in res.stderr


def test_runtime_conflict_exits_4(db):
    arrfile.save(db / "A.arr", Array(1, [((0,), "x")]))
    arrfile.save(db / "B.arr", Array(1, [((0,), "y")]))
    res = run("query", "-c", str(db), "union(A, B)")
    assert res.returncode == 4
    assert res.stdout == ""


def test_missing_catalog_exits_5(tmp_path):
    res = run("query", "-c", str(tmp_path / "nope"), "M")
    assert res.returncode == 5


def test_corrupt_catalog_file_exits_5(db):
    (db / "bad.arr").write_text("not a header\n")
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 5


@pytest.mark.parametrize(
    "body, located",
    [
        (b"arrac v1 arity=1 count=2\n0 -> int:1\nzz -> int:2\n", ", line 3\n"),
        (b"arrac v1 arity=1 count=1\n0 -> str:\"\xff\"\n", "\n"),
    ],
    ids=["bad-index", "not-utf8"],
)
def test_catalog_file_faults_name_the_file(db, body, located):
    (db / "bad.arr").write_bytes(body)
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 5
    assert res.stderr.endswith(f"  --> {db / 'bad.arr'}{located}")


@pytest.mark.parametrize(
    "text, says, line",
    [
        ("arrac v1 arity=2 count=2\n0,0 -> int:1\n0 -> int:2\n",
         "index (0,) has 1 coordinates, file declares arity 2", 3),
        ("arrac v1 arity=1 count=3\n0 -> int:1\n1 -> int:5\n0 -> int:2\n",
         "index (0,) is bound to two different values", 4),
        ("arrac v1 arity=1 count=1\n0 -> array{arity=1; 0 -> int:1; 0 -> int:2}\n",
         "index (0,) bound to two different values", 2),
        ("arrac v1 arity=2 count=0\nlabel dim=1 0=a\nlabel dim=1 0=b\n",
         "duplicate label line for dim 1", 3),
    ],
    ids=["wrong-width", "conflicting-repeat", "nested-conflict", "repeated-label-line"],
)
def test_catalog_file_body_faults_exit_5_at_their_line(db, text, says, line):
    (db / "bad.arr").write_text(text)
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 5
    assert f"error: {says}" in res.stderr
    assert res.stderr.endswith(f"  --> {db / 'bad.arr'}, line {line}\n")


@pytest.mark.parametrize(
    "body",
    ["\u00b2 -> int:1", "0 -> int:\u00b2", "\u0663 -> int:1"],
    ids=["index", "int", "arabic-indic"],
)
def test_non_ascii_digits_in_a_catalog_file_exit_5(db, tmp_path, body):
    text = f"arrac v1 arity=1 count=1\n{body}\n"
    (db / "bad.arr").write_text(text, encoding="utf-8")
    assert run("query", "-c", str(db), "M").returncode == 5
    outside = tmp_path / "bad.arr"
    outside.write_text(text, encoding="utf-8")
    assert run("load", "-c", str(db), "--name", "copy", str(outside)).returncode == 5


def test_unusable_file_names_warn_and_skip(db):
    arrfile.save(db / "not-an-ident.arr", Array(1, [((0,), 1)]))
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 0
    assert res.stdout == arrfile.dumps(M)
    assert "skipping" in res.stderr


def test_a_corrupt_file_with_an_unusable_name_is_skipped_unread(db, capsys):
    (db / "not-an-ident.arr").write_text("not an exchange file\n")
    code, out, err = run_in_process(capsys, "query", "-c", db, "M")
    assert (code, out) == (0, arrfile.dumps(M))
    assert err == "warning: skipping not-an-ident.arr: unusable name\n"


# --- the catalog's parse memo ---------------------------------------------

MEMO = ".arrac-parsed"


def test_unnamed_file_corrupted_after_its_memo_entry_still_exits_5(db, capsys):
    assert run_in_process(capsys, "query", "-c", db, "M")[0] == 0
    assert "T.arr " in (db / MEMO).read_text()
    (db / "T.arr").write_text("arrac v1 arity=1 count=2\n0 -> int:1\nzz -> int:2\n")
    code, out, err = run_in_process(capsys, "query", "-c", db, "M")
    assert (code, out) == (5, "")
    assert err.endswith(f"  --> {db / 'T.arr'}, line 3\n")


@pytest.mark.parametrize(
    "spoil",
    [
        lambda memo: None,
        lambda memo: memo[: len(memo) // 2],
        lambda memo: b"\xff\x00 not a memo\n",
        lambda memo: memo.replace(b" v1 ", b" v1 0.0.0-other ", 1),
    ],
    ids=["missing", "truncated", "garbage", "other-version"],
)
@pytest.mark.parametrize("query", ['select(M, val = "b")', "union(M, M)", "cross(M,"])
def test_a_spoilt_memo_changes_no_result(db, capsys, spoil, query):
    cold = run_in_process(capsys, "query", "-c", db, query)[:2]
    memo = (db / MEMO).read_bytes()
    spoilt = spoil(memo)
    if spoilt is None:
        (db / MEMO).unlink()
    else:
        (db / MEMO).write_bytes(spoilt)
    assert run_in_process(capsys, "query", "-c", db, query)[:2] == cold
    assert (db / MEMO).read_bytes() == memo


def test_a_memo_line_cut_short_costs_a_parse_of_its_own_file_only(db, capsys, monkeypatch):
    arrfile.save(db / "U.arr", Array(1, [((0,), 1)]))
    assert run_in_process(capsys, "query", "-c", db, "M")[0] == 0
    memo = (db / MEMO).read_bytes()
    assert memo.endswith(b"\nU.arr " + memo[-65:])  # U's line comes last
    parsed = []
    load = arrfile.load
    monkeypatch.setattr(
        arrfile, "load", lambda path, *data: parsed.append(Path(path).name) or load(path, *data)
    )
    intact = run_in_process(capsys, "query", "-c", db, "union(M, M)")
    assert intact[0] == 0 and parsed == ["M.arr"]
    parsed.clear()
    (db / MEMO).write_bytes(memo[:-10])
    assert run_in_process(capsys, "query", "-c", db, "union(M, M)") == intact
    assert sorted(parsed) == ["M.arr", "U.arr"]  # T, listed intact and not named, is not
    assert (db / MEMO).read_bytes() == memo


def test_a_memo_that_cannot_be_written_changes_no_result(db, capsys):
    cold = run_in_process(capsys, "query", "-c", db, "M")
    assert cold[0] == 0
    (db / MEMO).unlink()
    (db / MEMO).mkdir()
    assert run_in_process(capsys, "query", "-c", db, "M") == cold
    assert sorted(p.name for p in db.iterdir()) == [MEMO, "M.arr", "T.arr"]


def test_a_warm_catalog_rewrites_no_memo(db, capsys):
    assert run_in_process(capsys, "query", "-c", db, "M")[0] == 0
    os.utime(db / MEMO, ns=(10**18, 10**18))
    before = (db / MEMO).read_bytes(), (db / MEMO).stat()
    assert run_in_process(capsys, "query", "-c", db, "T")[0] == 0
    after = (db / MEMO).read_bytes(), (db / MEMO).stat()
    assert after[0] == before[0]
    assert (after[1].st_mtime_ns, after[1].st_ino) == (before[1].st_mtime_ns, before[1].st_ino)


def test_unusable_file_names_warn_and_skip_on_a_warm_catalog(db, capsys):
    arrfile.save(db / "not-an-ident.arr", Array(1, [((0,), 1)]))
    for _ in range(2):
        code, out, err = run_in_process(capsys, "query", "-c", db, "M")
        assert (code, out) == (0, arrfile.dumps(M))
        assert err == "warning: skipping not-an-ident.arr: unusable name\n"
    assert "not-an-ident" not in (db / MEMO).read_text()


def test_usage_errors_exit_2(db):
    assert run("query").returncode == 2
    assert run("no-such-command").returncode == 2
    assert run("query", "-c", str(db), "--format", "fancy", "M").returncode == 2


def test_load_takes_no_output_option(db, tmp_path):
    # load writes into the catalog only
    res = run("load", "-c", str(db), "-o", str(tmp_path / "x.arr"), str(db / "M.arr"))
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr


def test_load_and_save_round_trip(db, tmp_path):
    exported = tmp_path / "exported.arr"
    res = run("save", "-c", str(db), "-o", str(exported), "M")
    assert res.returncode == 0
    assert res.stdout == ""
    assert exported.read_text() == arrfile.dumps(M)

    db2 = tmp_path / "db2"
    res = run("load", "-c", str(db2), "--name", "copy", str(exported))
    assert res.returncode == 0
    assert (db2 / "copy.arr").read_text() == arrfile.dumps(M)

    res = run("load", "-c", str(db2), str(tmp_path / "missing.arr"))
    assert res.returncode == 5

    res = run("load", "-c", str(db2), "--name", "9x", str(exported))
    assert res.returncode == 5
    assert res.stderr == "error: '9x' is not a usable array name\n"


def test_vpartition_then_reassemble(db, tmp_path):
    out = tmp_path / "frags"
    res = run(
        "vpartition", "-c", str(db), "-o", str(out), "M",
        "--by", "dim0 = 0", "--by", "dim0 != 0",
        "--shards", "east,west",
    )
    assert res.returncode == 0
    manifest_path = out / "M.manifest.json"
    doc = json.loads(manifest_path.read_text())
    assert doc["kind"] == "vertical"
    assert [f["file"] for f in doc["fragments"]] == ["M.f0.arr", "M.f1.arr"]
    assert [f["shard"] for f in doc["fragments"]] == ["east", "west"]
    assert all((out / f["file"]).exists() for f in doc["fragments"])

    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 0
    assert res.stdout == arrfile.dumps(M)


def test_hpartition_then_reassemble(db, tmp_path):
    out = tmp_path / "frags"
    res = run(
        "hpartition", "-c", str(db), "-o", str(out), "T",
        "--slices", "[{0}, {1, 2}]",
    )
    assert res.returncode == 0
    manifest_path = out / "T.manifest.json"
    assert json.loads(manifest_path.read_text())["kind"] == "horizontal"

    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 0
    assert res.stdout == arrfile.dumps(T)


def test_bad_partition_schemes(db, tmp_path):
    res = run(
        "vpartition", "-c", str(db), "-o", str(tmp_path / "x"), "M",
        "--by", "dim0 = 0",
    )
    assert res.returncode == 4  # not exhaustive
    res = run(
        "hpartition", "-c", str(db), "-o", str(tmp_path / "y"), "M",
        "--slices", "[{0}]",
    )
    assert res.returncode == 4  # M is not tuple-valued
    res = run(
        "vpartition", "-c", str(db), "-o", str(tmp_path / "z"), "M",
        "--by", "dim0 <",
    )
    assert res.returncode == 2  # predicate does not parse


def test_verify_detects_tampered_fragment(db, tmp_path):
    out = tmp_path / "frags"
    run(
        "vpartition", "-c", str(db), "-o", str(out), "M",
        "--by", "dim0 = 0", "--by", "dim0 != 0",
    )
    frag_path = out / "M.f1.arr"
    frag, _ = arrfile.load(frag_path)
    edited = Array(2, [(i, StrV("EDITED")) for i, _ in frag.items()])
    arrfile.save(frag_path, edited)

    res = run("reassemble", "-c", str(db), str(out / "M.manifest.json"), "--verify")
    assert res.returncode == 4
    assert res.stdout == ""

    # without --verify the edit slides through: the fragments stay disjoint
    res = run("reassemble", "-c", str(db), str(out / "M.manifest.json"))
    assert res.returncode == 0
    out_arr, _ = arrfile.loads(res.stdout)
    assert out_arr[(1, 0)] == StrV("EDITED")


def test_overlapping_tamper_conflicts_without_verify(db, tmp_path):
    out = tmp_path / "frags"
    run(
        "vpartition", "-c", str(db), "-o", str(out), "M",
        "--by", "dim0 = 0", "--by", "dim0 != 0",
    )
    frag_path = out / "M.f1.arr"
    frag, _ = arrfile.load(frag_path)
    overlapping = Array(2, list(frag.items()) + [((0, 0), StrV("SMUGGLED"))])
    arrfile.save(frag_path, overlapping)

    res = run("reassemble", "-c", str(db), str(out / "M.manifest.json"))
    assert res.returncode == 4
    assert "0, 0" in res.stderr or "(0, 0)" in res.stderr


def test_tampered_horizontal_fragment_exits_4(db, tmp_path):
    out = tmp_path / "frags"
    run("hpartition", "-c", str(db), "-o", str(out), "T", "--slices", "[{0}, {1, 2}]")
    frag_path = out / "T.f1.arr"
    frag, _ = arrfile.load(frag_path)
    arrfile.save(frag_path, Array(1, [(i, StrV("FLAT")) for i, _ in frag.items()]))

    res = run("reassemble", "-c", str(db), str(out / "T.manifest.json"))
    assert res.returncode == 4
    assert res.stdout == ""
    assert "'f1'" in res.stderr and "(0,)" in res.stderr


SRC = Path(__file__).resolve().parent.parent / "src" / "arrac"


def _file_name_shape(node) -> str:
    """A string literal's text, each f-string field as ``{}``."""
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return node.value


def test_only_the_manifest_module_names_a_placements_files():
    """manifest.write and manifest.load_placement own a placement's layout
    on disk: no other module spells a fragment file or a manifest name."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    spelled = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        if path.name != "manifest.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.JoinedStr)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        if _file_name_shape(node).endswith(("{}.{}.arr", ".manifest.json"))
    ]
    assert spelled == []


@pytest.mark.parametrize(
    "slices",
    # two slices each, matching the two fragments, so the count check passes;
    # the last three equal the expression's [[0], [1, 2]] but for how they are written
    [[["a"], [1, 2]], [[True], [1, 2]], [[0], [0]], [[0], [10**18]],
     [[0], [2, 1]], [[False], [True, 2]], [[0.0], [1, 2]]],
    ids=["string", "bool", "overlap", "huge-gap", "not-canonical", "bools-equal", "float"],
)
def test_bad_manifest_slices_exit_5(db, tmp_path, slices):
    out = tmp_path / "frags"
    run("hpartition", "-c", str(db), "-o", str(out), "T", "--slices", "[{0}, {1, 2}]")
    manifest_path = out / "T.manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["slices"] = slices
    manifest_path.write_text(json.dumps(doc))

    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 5
    assert res.stdout == ""


def _vertical_manifest(db, out):
    run(
        "vpartition", "-c", str(db), "-o", str(out), "M",
        "--by", "dim0 = 0", "--by", "dim0 != 0",
    )
    return out / "M.manifest.json"


def _outside(doc, out):
    (out.parent / "A.arr").write_text((out / "M.f0.arr").read_text())
    doc["fragments"][0]["file"] = "../A.arr"


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc, out: doc.update(predicates=[1, 2]),
        # as long as the fragment list, so only the type check can catch it
        lambda doc, out: doc.update(predicates="ab"),
        lambda doc, out: doc.update(predicates=["dim0 = 0", "dim0 <"]),
        # the expression's predicates, not as arrac writes them
        lambda doc, out: doc.update(predicates=["dim0=0", "dim0 != 0"]),
        lambda doc, out: doc.update(expression="vpartition(M, dim0=0, dim0 != 0)"),
        # a name the query language reads but no catalog binds
        lambda doc, out: doc.update(source="Mé", expression="vpartition(Mé, dim0 = 0, dim0 != 0)"),
        lambda doc, out: doc.update(origin_arity=True),
        lambda doc, out: doc["fragments"][1].update(id=doc["fragments"][0]["id"]),
        lambda doc, out: doc["fragments"][0].update(file=str(out / "M.f0.arr")),
        _outside,
    ],
    ids=["int-predicates", "string-predicates", "bad-predicate", "predicates-not-canonical",
         "expression-not-canonical", "source-not-ascii", "bool-arity", "duplicate-ids",
         "absolute-file", "file-outside"],
)
def test_bad_vertical_manifest_exits_5(db, tmp_path, edit):
    out = tmp_path / "frags"
    manifest_path = _vertical_manifest(db, out)
    doc = json.loads(manifest_path.read_text())
    edit(doc, out)
    manifest_path.write_text(json.dumps(doc))

    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 5
    assert res.stdout == ""
    assert str(manifest_path) in res.stderr


def test_manifest_syntax_error_is_located(db, tmp_path):
    manifest_path = tmp_path / "M.manifest.json"
    manifest_path.write_text('{\n  "format": "arrac-placement v1",\n  "kind": vertical\n}\n')
    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 5
    assert res.stdout == ""
    assert "not valid JSON" in res.stderr
    assert f"  --> {manifest_path}, line 3\n" in res.stderr


def test_manifest_fault_names_the_manifest_once(db, tmp_path):
    manifest_path = _vertical_manifest(db, tmp_path / "frags")
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(dict(doc, kind="diagonal")))
    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 5
    assert res.stderr == f"error: bad kind 'diagonal'\n  --> {manifest_path}\n"


def test_manifest_integer_past_the_digit_limit_exits_5(db, tmp_path):
    manifest_path = _vertical_manifest(db, tmp_path / "frags")
    text = manifest_path.read_text()
    assert '"origin_arity": 2' in text
    manifest_path.write_text(text.replace('"origin_arity": 2', f'"origin_arity": {HUGE}'))
    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 5
    assert "not valid JSON" in res.stderr


@pytest.mark.parametrize("expression", [7, "vpartition(M,"], ids=["number", "unparsable"])
def test_bad_manifest_expression_exits_5_under_verify(db, tmp_path, expression):
    manifest_path = _vertical_manifest(db, tmp_path / "frags")
    doc = json.loads(manifest_path.read_text())
    doc["expression"] = expression
    manifest_path.write_text(json.dumps(doc))

    res = run("reassemble", "-c", str(db), str(manifest_path), "--verify")
    assert res.returncode == 5
    assert res.stdout == ""


def run_in_process(capsys, *argv):
    """Run the CLI in process: its exit code, stdout and stderr."""
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _partitioned(capsys, db, out, kind):
    if kind == "vertical":
        command, name, *scheme = "vpartition", "M", "--by", "dim0 = 0", "--by", "dim0 != 0"
    else:
        command, name, *scheme = "hpartition", "T", "--slices", "[{0}, {1, 2}]"
    assert run_in_process(capsys, command, "-c", db, "-o", out, name, *scheme)[0] == 0
    return out / f"{name}.manifest.json"


@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
@pytest.mark.parametrize(
    "kind, edit",
    [
        ("horizontal", {"slices": [[1], [0, 2]]}),
        ("horizontal", {"slices": [[0], [1]]}),
        ("vertical", {"predicates": ["dim1 = 0", "dim1 != 0"]}),
        ("vertical", {"predicates": ["dim0 != 0", "dim0 = 0"]}),
        ("vertical", {"source": 7}),
        ("vertical", {"source": "no such"}),
        ("horizontal", {"source": "M"}),
    ],
    ids=["slices-reordered", "slices-too-few", "predicates-other-dim",
         "predicates-swapped", "source-number", "source-not-a-name", "source-other"],
)
def test_manifest_that_states_two_schemes_exits_5(db, tmp_path, capsys, kind, edit, verify):
    # each edit leaves a valid scheme that the expression does not state
    manifest_path = _partitioned(capsys, db, tmp_path / "frags", kind)
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(dict(doc, **edit)))

    code, out, err = run_in_process(capsys, "reassemble", "-c", db, manifest_path, *verify)
    assert (code, out) == (5, "")
    assert err.endswith(f"\n  --> {manifest_path}\n")


def test_stored_predicate_fault_names_the_manifest_once(db, tmp_path, capsys):
    manifest_path = _partitioned(capsys, db, tmp_path / "frags", "vertical")
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(dict(doc, predicates=["dim0 = 0", "dim0 <"])))

    code, out, err = run_in_process(capsys, "reassemble", "-c", db, manifest_path)
    assert (code, out) == (5, "")
    assert err == (
        "error: predicates ['dim0 = 0', 'dim0 <'] is not the expression's"
        f" ['dim0 = 0', 'dim0 != 0']\n  --> {manifest_path}\n"
    )


@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
def test_manifest_predicate_past_the_origin_arity_exits_5(db, tmp_path, capsys, verify):
    # the predicates and the expression agree, on a dimension M does not have
    manifest_path = _partitioned(capsys, db, tmp_path / "frags", "vertical")
    doc = json.loads(manifest_path.read_text())
    doc.update(predicates=["dim7 = 0", "dim7 != 0"],
               expression="vpartition(M, dim7 = 0, dim7 != 0)")
    manifest_path.write_text(json.dumps(doc))

    code, out, err = run_in_process(capsys, "reassemble", "-c", db, manifest_path, *verify)
    assert (code, out) == (5, "")
    assert err == (
        "error: bad predicate: predicate references dimension 7 of a 2-d array\n"
        f"  --> {manifest_path}\n"
    )


@pytest.mark.parametrize("kind", ["vertical", "horizontal"])
def test_manifest_states_the_scheme_once(db, tmp_path, capsys, kind):
    doc = json.loads(_partitioned(capsys, db, tmp_path / "frags", kind).read_text())
    assert [sorted(entry) for entry in doc["fragments"]] == [["file", "id", "shard"]] * 2
    assert doc["expression"] == (
        "vpartition(M, dim0 = 0, dim0 != 0)" if kind == "vertical"
        else "hpartition(T, [{0}, {1, 2}])"
    )


# A vertical manifest as earlier versions wrote it: with an ``expr`` per fragment.
OLDER_MANIFEST = """{
  "expression": "vpartition(M, dim0 = 0, dim0 != 0)",
  "format": "arrac-placement v1",
  "fragments": [
    {"expr": "select(M, dim0 = 0)", "file": "M.f0.arr", "id": "f0", "shard": "shard-0"},
    {"expr": "select(M, dim0 != 0)", "file": "M.f1.arr", "id": "f1", "shard": "shard-1"}
  ],
  "kind": "vertical",
  "origin_arity": 2,
  "predicates": ["dim0 = 0", "dim0 != 0"],
  "source": "M"
}
"""


@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
def test_manifest_with_fragment_expressions_still_reassembles(db, tmp_path, capsys, verify):
    manifest_path = _partitioned(capsys, db, tmp_path / "frags", "vertical")
    manifest_path.write_text(OLDER_MANIFEST)

    code, out, err = run_in_process(capsys, "reassemble", "-c", db, manifest_path, *verify)
    assert (code, out, err) == (0, arrfile.dumps(M), "")


@pytest.mark.parametrize(
    "argv, count, given",
    [
        (["vpartition", "M", "--by", "dim0=0", "--by", "dim0!=0", "--shards", "a"], 2, 1),
        (["vpartition", "M", "--by", "dim0=0", "--by", "dim0!=0", "--shards", ",,"], 2, 0),
        (["hpartition", "T", "--slices", "[{0},{1, 2}]", "--shards", "x,y,z"], 2, 3),
    ],
    ids=["vertical-too-few", "vertical-none", "horizontal-too-many"],
)
def test_shards_of_the_wrong_count_are_a_usage_error(db, tmp_path, capsys, argv, count, given):
    with pytest.raises(SystemExit) as exit_:
        cli.main([argv[0], "-c", str(db), "-o", str(tmp_path / "out"), *argv[1:]])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: --shards: expected {count} shard ids, got {given}\n" in err
    assert not (tmp_path / "out").exists()


def test_encode_and_decode_table(db, tmp_path, capsys):
    csv_path = tmp_path / "sensors.csv"
    csv_path.write_text("*id,site,temp\n1,yard,19.0\n3,roof,21.5\n7,lab,22.25\n")
    res = run("encode-table", "-c", str(db), "--name", "S", str(csv_path))
    assert res.returncode == 0
    assert (db / "S.arr").exists()

    res = run("query", "-c", str(db), "select(S, dim1 = 2)")
    assert res.returncode == 0
    temps, _ = arrfile.loads(res.stdout)
    assert len(temps) == 3

    res = run("decode-table", "-c", str(db), "S")
    assert res.returncode == 0
    assert res.stdout == "id,site,temp\n1,yard,19.0\n3,roof,21.5\n7,lab,22.25\n"

    # an empty cell is undef, a column of ints and floats reads as floats,
    # and a column with no cells at all as str
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("n,m,e,s\n1,2.5,,x\n,3,,\n-4,-1e3,,7\n")
    assert run_in_process(capsys, "encode-table", "-c", db, mixed)[0] == 0
    assert (db / "mixed.arr").read_text() == (
        "arrac v1 arity=2 count=12\nlabel dim=1 0=n 1=m 2=e 3=s\n"
        "0,0 -> int:1\n0,1 -> float:2.5\n0,2 -> undef\n0,3 -> str:\"x\"\n"
        "1,0 -> undef\n1,1 -> float:3.0\n1,2 -> undef\n1,3 -> undef\n"
        "2,0 -> int:-4\n2,1 -> float:-1000.0\n2,2 -> undef\n2,3 -> str:\"7\"\n"
    )
    code, out, _ = run_in_process(capsys, "decode-table", "-c", db, "mixed")
    assert (code, out) == (0, "n,m,e,s\n1,2.5,,x\n,3.0,,\n-4,-1000.0,,7\n")

    # undef, tuple and nested-array cells print as empty text and exchange text
    inner = Array(1, [((0,), "deep"), ((3,), UNDEF)])
    cells = Array(2, [
        ((0, 0), UNDEF), ((0, 1), (1, "x, y", -2.5)), ((0, 2), inner),
        ((1, 0), 4), ((1, 1), (UNDEF,)), ((1, 2), Array(2, [])),
    ])
    arrfile.save(db / "C.arr", cells, DimensionLabels({1: {"a": 0, "b": 1, "c": 2}}))
    code, out, _ = run_in_process(capsys, "decode-table", "-c", db, "C")
    assert (code, out) == (0, (
        "a,b,c\n"
        ',"tuple(int:1,str:""x, y"",float:-2.5)","array{arity=1; 0 -> str:""deep""; 3 -> undef}"\n'
        "4,tuple(undef),array{arity=2}\n"
    ))


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "NOPE"],
        ["save", "-o", "{out}/NOPE.arr", "NOPE"],
        ["vpartition", "-o", "{out}", "NOPE", "--by", "dim0 = 0"],
        ["hpartition", "-o", "{out}", "NOPE", "--slices", "[{{0}}]"],
        ["decode-table", "NOPE"],
    ],
    ids=lambda argv: argv[0],
)
def test_unbound_name_exits_3_on_every_command(db, tmp_path, capsys, argv):
    command, *rest = (a.format(out=tmp_path / "out") for a in argv)
    code, out, err = run_in_process(capsys, command, "-c", db, *rest)
    assert (code, out) == (3, "")
    assert err.startswith("error: 'NOPE' is not bound in the catalog\n")
    assert not (tmp_path / "out").exists()


def test_labels_travel_with_the_array(db, tmp_path, capsys):
    csv_path = tmp_path / "sensors.csv"
    csv_path.write_text("*id,site\n1,yard\n3,roof\n")
    assert run_in_process(capsys, "encode-table", "-c", db, "--name", "S", csv_path)[0] == 0
    stored = (db / "S.arr").read_text()
    assert "\nlabel dim=1 0=id 1=site\n" in stored

    saved = tmp_path / "saved.arr"
    assert run_in_process(capsys, "save", "-c", db, "-o", saved, "S")[0] == 0
    assert saved.read_text() == stored

    db2 = tmp_path / "db2"
    assert run_in_process(capsys, "load", "-c", db2, "--name", "copy", saved)[0] == 0
    assert (db2 / "copy.arr").read_text() == stored
    code, out, _ = run_in_process(capsys, "decode-table", "-c", db2, "copy")
    assert (code, out) == (0, "id,site\n1,yard\n3,roof\n")


@pytest.mark.parametrize("source", ["T", "{db}/T.arr"], ids=["catalog", "file"])
def test_decode_table_refuses_a_cell_in_no_labelled_column(db, tmp_path, capsys, source):
    (db / "T.arr").write_text(
        "arrac v1 arity=2 count=4\nlabel dim=1 0=a 1=b\n"
        "0,0 -> int:1\n0,1 -> int:2\n0,2 -> int:3\n0,5 -> int:4\n"
    )
    target = tmp_path / "T.csv"
    code, out, err = run_in_process(
        capsys, "decode-table", "-c", db, "-o", target, source.format(db=db)
    )
    assert (code, out) == (4, "")
    assert err == "error: index (0, 2) lies in no labelled column on dimension 1\n"
    assert not target.exists()


def test_decode_table_refuses_a_label_that_would_read_back_as_the_key_marker(db, tmp_path, capsys):
    (db / "T.arr").write_text(
        "arrac v1 arity=2 count=2\nlabel dim=1 0=id 1=*a\n0,0 -> int:1\n0,1 -> int:5\n"
    )
    target = tmp_path / "T.csv"
    code, out, err = run_in_process(capsys, "decode-table", "-c", db, "-o", target, "T")
    assert (code, out) == (4, "")
    assert err == (
        "error: column label '*a' starts with '*', which a table header reads as the key marker\n"
    )
    assert not target.exists()


def test_decode_table_source_that_is_a_name_is_a_catalog_array(db, tmp_path, capsys, monkeypatch):
    (db / "T.arr").write_text("arrac v1 arity=2 count=1\nlabel dim=1 0=id\n0,0 -> int:1\n")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "T").write_text("hello\n")  # a stray file does not shadow the catalog
    assert run_in_process(capsys, "decode-table", "-c", db, "T") == (0, "id\n1\n", "")


def test_decode_table_needs_labels(db):
    res = run("decode-table", "-c", str(db), "M")
    assert res.returncode == 4
    assert "labels" in res.stderr


def test_encode_table_rejects_duplicate_keys(db, tmp_path):
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("*k,v\n5,a\n5,b\n")
    res = run("encode-table", "-c", str(db), str(csv_path))
    assert res.returncode == 4
    assert "share key" in res.stderr


# --- the planner, seen from the command line --------------------------------

# they agree where both are defined, so the union succeeds too
A = Array(1, [((0,), 1), ((1,), 2)])
B = Array(1, [((1,), 2), ((2,), 5)])


@pytest.mark.parametrize(
    "query, explained",
    [
        ("select(cross(A, B), dim0 = dim1)",
         "equijoin(A, B, on(0:0))\nrule cross-to-equijoin at line 1, column 1\n"),
        ("union(A, B)", "union(A, B)\n"),
    ],
    ids=["rule-fires", "nothing-fires"],
)
def test_explain_prints_the_plan_to_stderr_only(db, query, explained):
    arrfile.save(db / "A.arr", A)
    arrfile.save(db / "B.arr", B)
    plain = run("query", "-c", str(db), query)
    res = run("query", "-c", str(db), "--explain", query)
    assert plain.returncode == res.returncode == 0
    assert res.stdout == plain.stdout
    assert plain.stderr == ""
    assert res.stderr == explained


# --- nesting limit ------------------------------------------------------------


@pytest.mark.parametrize(
    "query",
    [
        "select(M, " + "not " * 3000 + "dim0 = 0)",
        "union(" * 1500 + "M" + ", M)" * 1500,
        "select(" * 900 + "M" + ", dim0 = 0)" * 900,
    ],
    ids=["not", "union", "select"],
)
def test_query_nested_too_deep_exits_2(db, query):
    res = run("query", "-c", str(db), query)
    assert res.returncode == 2
    assert "nesting deeper than" in res.stderr and "line 1, column" in res.stderr


def test_query_nested_to_the_limit_runs(db):
    res = run("query", "-c", str(db), "union(" * MAX_NESTING + "M" + ", M)" * MAX_NESTING)
    assert res.returncode == 0
    assert res.stdout == arrfile.dumps(M)


def test_value_nested_too_deep_in_a_catalog_file_exits_5(db):
    (db / "deep.arr").write_text("arrac v1 arity=1 count=1\n0 -> " + "tuple(" * 3000 + "\n")
    res = run("query", "-c", str(db), "M")
    assert res.returncode == 5
    assert "nested deeper than" in res.stderr


def test_query_result_nested_too_deep_is_not_written(db):
    deep = "tuple(" * MAX_NESTING + "int:1" + ")" * MAX_NESTING
    (db / "D.arr").write_text(f"arrac v1 arity=1 count=1\n0 -> {deep}\n")
    res = run("query", "-c", str(db), "-o", str(db / "out.arr"), "cross(D, T)")
    assert res.returncode == 5
    assert f"nested deeper than {MAX_NESTING} levels at index (0, 0)" in res.stderr
    assert not (db / "out.arr").exists()
    assert run("query", "-c", str(db), "M").returncode == 0


def test_manifest_nested_too_deep_exits_5(db, tmp_path):
    manifest_path = tmp_path / "deep.manifest.json"
    manifest_path.write_text("[" * 100_000)
    res = run("reassemble", "-c", str(db), str(manifest_path))
    assert res.returncode == 5
    assert "not valid JSON" in res.stderr


# --- torn writes ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["query", "M"], ["decode-table", "S"]],
    ids=["query", "decode-table"],
)
def test_output_file_is_kept_whole_when_the_write_fails(db, tmp_path, monkeypatch, argv):
    csv_path = tmp_path / "s.csv"
    csv_path.write_text("*id,site\n1,yard\n")
    assert run("encode-table", "-c", str(db), "--name", "S", str(csv_path)).returncode == 0
    out = tmp_path / "out"
    out.mkdir()
    target = out / "result"
    target.write_text("old contents\n")

    def refuse(src, dst):
        raise OSError("disk went away")
    monkeypatch.setattr("os.replace", refuse)
    code = cli.main([argv[0], "-c", str(db), "-o", str(target), argv[1]])
    assert code == 5
    assert target.read_text() == "old contents\n"
    assert [p.name for p in out.iterdir()] == ["result"]


# --- encode-table ---------------------------------------------------------------


def test_encode_table_cell_past_the_digit_limit_exits_5(db, tmp_path):
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(f"*id,big\n0,{HUGE}\n1,7\n")
    res = run("encode-table", "-c", str(db), str(csv_path))
    assert res.returncode == 5
    assert "row 2: integer has more than" in res.stderr
    assert not (db / "big.arr").exists()


def test_encode_table_repeated_column_name_exits_5(db, tmp_path):
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("a,a\n1,2\n")
    res = run("encode-table", "-c", str(db), str(csv_path))
    assert res.returncode == 5
    assert "column names must be unique" in res.stderr
    assert res.stderr.endswith(f"  --> {csv_path}, line 1\n")
    assert not (db / "dup.arr").exists()


@pytest.mark.parametrize(
    "text, says, line",
    [
        ("", "missing header line", 1),
        ("*a,*b\n1,2\n", "only one key column may be marked", 1),
        ("a,b\n1,2\n3\n", "row has 1 cells, header has 2", 3),
        ("a b,c\n1,2\n", "bad column name 'a b': ", 1),
    ],
    ids=["empty", "two-keys", "ragged", "bad-name"],
)
def test_encode_table_faults_name_the_file(db, tmp_path, capsys, text, says, line):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(text)
    code, out, err = run_in_process(capsys, "encode-table", "-c", db, csv_path)
    assert (code, out) == (5, "")
    assert err.startswith(f"error: {says}")
    assert err.endswith(f"\n  --> {csv_path}, line {line}\n")
    assert not (db / "t.arr").exists()


def test_encode_table_input_not_utf8_exits_5(db, tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(b"\xff\xfea,b\n1,2\n")
    res = run("encode-table", "-c", str(db), str(csv_path))
    assert res.returncode == 5
    assert "not UTF-8 text" in res.stderr
    assert f"--> {csv_path}" in res.stderr


def test_a_missing_input_file_is_named_by_load_and_encode_table(db, tmp_path, capsys):
    arr_path, csv_path = tmp_path / "nothere.arr", tmp_path / "nothere.csv"
    assert run_in_process(capsys, "load", "-c", db, arr_path) == (
        5, "", f"error: no such file: {arr_path}\n"
    )
    # every encode-table file fault names the file on a --> line
    assert run_in_process(capsys, "encode-table", "-c", db, csv_path) == (
        5, "", f"error: no such file: {csv_path}\n  --> {csv_path}\n"
    )
    assert not (db / "nothere.arr").exists()


def test_reassemble_of_a_missing_manifest_exits_5(db, tmp_path, capsys):
    path = tmp_path / "nothere.manifest.json"
    assert run_in_process(capsys, "reassemble", "-c", db, path) == (
        5, "", f"error: no such manifest: {path}\n"
    )


@pytest.mark.parametrize("command", ["encode-table", "decode-table"])
@pytest.mark.parametrize("delimiter", ["", ",,"])
def test_delimiter_of_other_than_one_character_is_a_usage_error(db, tmp_path, command, delimiter):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("a,b\n1,2\n")
    source = str(csv_path) if command == "encode-table" else "M"
    res = run(command, "-c", str(db), f"--delimiter={delimiter}", source)
    assert res.returncode == 2
    assert "argument --delimiter" in res.stderr
