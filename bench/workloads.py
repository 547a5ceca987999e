"""The benchmark's workloads: set-up, the operations of one cycle, checks.

Every operation has

* ``run()``: what the timed loop measures;
* ``check(result)``: compares the result with the plain-Python reference
  from gen.py and returns a message, or None when it matches;
* ``replay(tracer)``: the same public arrac calls the CLI handler (or the
  engine operation) makes, in this process, with a span around each.  It
  returns a result of the same shape, so ``check`` applies to it too.

CLI operations return ``(exit code, stdout bytes)``; engine operations
return ``(exit code, value)``.  Exit codes follow the CLI's documented
mapping (2 parse, 3 name/arity, 4 runtime, 5 file/format).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from arrac import Array, algebra, arrfile, distribution, manifest, qlang, transforms
from arrac.errors import ArityError, ArracError, FormatError, ParseError, UnboundName
from arrac.qlang import Catalog, ast

import gen
from tracing import NULL, REPLAY_ONLY

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
QUERY_NAMES = ("BIG", "V", "T", "P", "Q", "X", "S")


def exit_code(exc: ArracError) -> int:
    if isinstance(exc, ParseError):
        return 2
    if isinstance(exc, (UnboundName, ArityError)):
        return 3
    if isinstance(exc, FormatError):
        return 5
    return 4


def first_diff(got, want) -> str:
    """Where two outputs first differ, with the two lines there."""
    if isinstance(got, bytes):
        got, want = got.decode("utf-8", "replace"), want.decode("utf-8", "replace")
    g, w = got.split("\n"), want.split("\n")
    for n, (a, b) in enumerate(zip(g, w), start=1):
        if a != b:
            return f"line {n}: got {a[:120]!r}, expected {b[:120]!r}"
    return f"got {len(g)} lines, expected {len(w)}"


class Op:
    """``label`` names a subset of a kind whose latency is also reported on
    its own (the cross queries)."""

    __slots__ = ("kind", "run", "check", "replay", "label")

    def __init__(self, kind, run, check, replay, label=None):
        self.kind, self.run, self.check, self.replay = kind, run, check, replay
        self.label = label


def query_label(q):
    return "cross" if q.text == gen.CROSS else None


# --- replays of CLI handlers ----------------------------------------------


def load_catalog(tr, directory) -> Catalog:
    """What ``arrac`` does before each command that names a catalog."""
    with tr.span("cli.catalog_load"):
        catalog = Catalog()
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".arr"):
                with tr.span("arrfile.load") as c:
                    array, _ = arrfile.load(os.path.join(directory, filename))
                    c["assoc"] = len(array)
                catalog.bind(filename[: -len(".arr")], array)
    return catalog


def _node(tr, name, fn, args, rows_in):
    with tr.span(name, rows_in=rows_in) as c:
        out = fn(*args)
        c["rows_out"] = len(out)
    return out


_JOINS = {
    ast.EquiJoin: ("algebra.equi_join", algebra.equi_join),
    ast.SemiJoin: ("algebra.semi_join", algebra.semi_join),
    ast.AntiJoin: ("algebra.anti_join", algebra.anti_join),
}


def replay_nodes(tr, expr, catalog):
    """Evaluate a query node by node through the public operator functions."""
    if isinstance(expr, ast.Ref):
        return catalog.lookup(expr.name)
    if isinstance(expr, (ast.Select, ast.Project, ast.Transform)):
        a = replay_nodes(tr, expr.child, catalog)
        if isinstance(expr, ast.Select):
            return _node(tr, "algebra.select", algebra.select, (a, expr.pred), len(a))
        if isinstance(expr, ast.Project):
            return _node(tr, "algebra.project", algebra.project, (a, expr.indexes), len(a))
        return _node(tr, "transforms.apply_steps", transforms.apply_steps, (a, expr.steps), len(a))
    a = replay_nodes(tr, expr.left, catalog)
    b = replay_nodes(tr, expr.right, catalog)
    rows = len(a) + len(b)
    if isinstance(expr, ast.Cross):
        return _node(tr, "algebra.cross", algebra.cross, (a, b), rows)
    if isinstance(expr, ast.Union):
        return _node(tr, "algebra.union", algebra.union, (a, b), rows)
    name, fn = _JOINS[type(expr)]
    return _node(tr, name, fn, (a, b, expr.on), rows)


def evaluate_traced(tr, text, catalog, typecheck):
    """parse (+ typecheck) + evaluate, then the node-by-node replay, which
    must give the same array."""
    with tr.span("qlang.parse"):
        expr = qlang.parse(text)
    if typecheck:
        with tr.span("qlang.typecheck"):
            qlang.typecheck(expr, catalog)
    with tr.span("qlang.evaluate"):
        result = qlang.evaluate(expr, catalog)
    with tr.span(REPLAY_ONLY):
        if replay_nodes(tr, expr, catalog) != result:
            raise RuntimeError(f"{text!r}: node-by-node replay differs from qlang.evaluate")
    return result


def dumps_traced(tr, array) -> bytes:
    with tr.span("arrfile.dumps") as c:
        data = arrfile.dumps(array).encode("utf-8")
        c["assoc"], c["bytes"] = len(array), len(data)
    return data


def save_traced(tr, path, array, labels=None) -> None:
    with tr.span("arrfile.save") as c:
        arrfile.save(path, array, labels)
        c["assoc"], c["bytes"] = len(array), os.path.getsize(path)


def write_placement_traced(tr, placement, name, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    files = [f"{name}.{f.fragment_id}.arr" for f in placement.fragments]
    for frag, filename in zip(placement.fragments, files):
        save_traced(tr, os.path.join(outdir, filename), frag.array)
    with tr.span("manifest.build"):
        doc = manifest.build(placement, name, files)
    with tr.span("manifest.save"):
        manifest.save(os.path.join(outdir, f"{name}.manifest.json"), doc)


def _cli_result(fn):
    try:
        return 0, fn()
    except ArracError as exc:
        return exit_code(exc), b""


# --- CLI workloads ---------------------------------------------------------


class CliDirs:
    """One copy of a CLI workload's files: catalog, load inputs, outputs."""

    def __init__(self, root: Path, inputs: gen.Inputs, names):
        self.catalog = root / "catalog"
        self.inputs = root / "inputs"
        self.out = root / "out"
        for d in (self.catalog, self.inputs, self.out):
            d.mkdir(parents=True, exist_ok=True)
        for name in names:
            (self.catalog / f"{name}.arr").write_text(
                inputs.texts[name], encoding="utf-8", newline="\n")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(env, *argv):
    proc = subprocess.run(
        [sys.executable, "-m", "arrac", *map(str, argv)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return proc.returncode, proc.stdout


def query_check(q):
    want = q.expected.encode("utf-8") if q.expected is not None else b""

    def check(res):
        code, out = res
        if code != q.exit:
            return f"{q.text!r}: exit {code}, expected {q.exit}"
        if out != want:
            return f"{q.text!r}: {first_diff(out, want)}"
        return None
    return check


def cli_query_ops(inputs, dirs: CliDirs, env) -> list:
    ops = []
    for q in inputs.queries:
        def run(q=q):
            return run_cli(env, "query", "-c", dirs.catalog, q.text)

        def replay(tr, q=q):
            def handler():
                catalog = load_catalog(tr, dirs.catalog)
                return dumps_traced(tr, evaluate_traced(tr, q.text, catalog, True))
            return _cli_result(handler)
        ops.append(Op("query", run, query_check(q), replay, query_label(q)))
    return ops


def _file_check(path: Path, want: str, what: str):
    data = path.read_bytes() if path.exists() else b""
    want = want.encode("utf-8")
    return None if data == want else f"{what}: {path.name}: {first_diff(data, want)}"


class PartitionFiles:
    """Expected files of one partition command, and the bytes it wrote."""

    def __init__(self, outdir: Path, name, kind, fragments, scheme_key, scheme):
        self.outdir = outdir
        self.name = name
        self.kind = kind
        self.files = [f"{name}.f{k}.arr" for k in range(len(fragments))]
        self.texts = [gen.dumps(2, frag) for frag in fragments]
        self.scheme_key = scheme_key
        self.scheme = scheme
        self.bytes = 0

    @property
    def manifest(self) -> Path:
        return self.outdir / f"{self.name}.manifest.json"

    def check(self, res):
        code, _ = res
        if code != 0:
            return f"{self.kind} partition of {self.name}: exit {code}"
        for file, text in zip(self.files, self.texts):
            msg = _file_check(self.outdir / file, text, f"{self.kind} fragment")
            if msg:
                return msg
        doc = json.loads(self.manifest.read_text(encoding="utf-8"))
        if (doc.get("kind"), [e.get("file") for e in doc.get("fragments", ())],
                doc.get(self.scheme_key)) != (self.kind, self.files, self.scheme):
            return f"{self.manifest.name}: unexpected kind, files or {self.scheme_key}"
        self.bytes = self.manifest.stat().st_size + sum(
            (self.outdir / f).stat().st_size for f in self.files)
        return None


def cli_partition_ops(inputs, dirs: CliDirs, env) -> tuple:
    vfiles = PartitionFiles(
        dirs.out / "v", "SRC", "vertical",
        gen.vertical_fragments(inputs.arrays["SRC"], len(inputs.vpreds)),
        "predicates", inputs.vpreds)
    hfiles = PartitionFiles(
        dirs.out / "h", "TUP", "horizontal",
        gen.horizontal_fragments(inputs.arrays["TUP"], inputs.hslices),
        "slices", [list(s) for s in inputs.hslices])
    loads = [dirs.inputs / f"L{k}.arr" for k in range(len(inputs.load_texts))]
    for path, text in zip(loads, inputs.load_texts):
        path.write_text(text, encoding="utf-8", newline="\n")
    state = {"next": 0, "loaded": None}

    def next_load():
        k = state["next"]
        state["next"] = (k + 1) % len(loads)
        state["loaded"] = k
        return loads[k]

    def load_run():
        return run_cli(env, "load", "-c", dirs.catalog, "--name", "L", next_load())

    def load_replay(tr):
        def handler():
            with tr.span("arrfile.load") as c:
                array, labels = arrfile.load(next_load())
                c["assoc"] = len(array)
            Catalog().bind("L", array)
            save_traced(tr, dirs.catalog / "L.arr", array, labels)
            return b""
        return _cli_result(handler)

    def load_check(res):
        if res[0] != 0:
            return f"load: exit {res[0]}"
        return _file_check(
            dirs.catalog / "L.arr", inputs.load_texts[state["loaded"]], "load")

    def partition_op(kind, files: PartitionFiles, args, parse, split):
        span = f"distribution.{split.__name__}"

        def run():
            return run_cli(env, kind, "-c", dirs.catalog, "-o", files.outdir,
                           files.name, *args)

        def replay(tr):
            def handler():
                array = load_catalog(tr, dirs.catalog).lookup(files.name)
                with tr.span("qlang.parse"):
                    scheme = parse()
                with tr.span(span, rows_in=len(array), preds=len(scheme)) as c:
                    placement = split(array, scheme)
                    c["fragments"] = len(placement.fragments)
                write_placement_traced(tr, placement, files.name, files.outdir)
                return b""
            return _cli_result(handler)
        return Op(kind, run, files.check, replay)

    def reassemble_ops(files: PartitionFiles, kind, span):
        want = inputs.texts[files.name].encode("utf-8")

        def run():
            return run_cli(env, "reassemble", files.manifest)

        def replay(tr):
            def handler():
                with tr.span("manifest.load_placement"):
                    placement, _ = manifest.load_placement(files.manifest)
                with tr.span(span) as c:
                    result = distribution.reassemble(placement)
                    c["rows_out"] = len(result)
                return dumps_traced(tr, result)
            return _cli_result(handler)

        def check(res):
            code, out = res
            if code != 0:
                return f"{kind}: exit {code}"
            return None if out == want else f"{kind}: {first_diff(out, want)}"
        return Op(kind, run, check, replay)

    return [
        Op("load", load_run, load_check, load_replay),
        partition_op(
            "vpartition", vfiles, [a for p in inputs.vpreds for a in ("--by", p)],
            lambda: [qlang.parse_predicate(p) for p in inputs.vpreds],
            distribution.partition_vertical),
        reassemble_ops(vfiles, "vreassemble", "distribution.reassemble_vertical"),
        partition_op(
            "hpartition", hfiles, ["--slices", inputs.hslices_text],
            lambda: qlang.parse_slices(inputs.hslices_text),
            distribution.partition_horizontal),
        reassemble_ops(hfiles, "hreassemble", "distribution.reassemble_horizontal"),
    ], (vfiles, hfiles)


class CliWorkload:
    """A CLI workload's set-up: catalog on disk, warmed-up interpreter."""

    def __init__(self, name, inputs, workdir: Path):
        self.name = name
        self.inputs = inputs
        self.workdir = workdir
        self.env = cli_env()
        self.ops, self.partition_files = self._ops(workdir / "main")
        # the first command compiles bytecode and fills the file cache
        warm = self.ops[0]
        warm.check(warm.run())

    def _ops(self, root):
        """The cycle's operations on one copy of the files, and the expected
        partition outputs (none for cli_query)."""
        if self.name == "cli_query":
            dirs = CliDirs(root, self.inputs, QUERY_NAMES)
            return cli_query_ops(self.inputs, dirs, self.env), ()
        # the catalog starts as a finished cycle leaves it, with L loaded
        dirs = CliDirs(root, self.inputs, ("SRC", "TUP"))
        (dirs.catalog / "L.arr").write_text(
            self.inputs.load_texts[-1], encoding="utf-8", newline="\n")
        return cli_partition_ops(self.inputs, dirs, self.env)

    def replay_ops(self):
        """The same operations on a separate copy of the files."""
        return self._ops(self.workdir / "replay")[0]

    def write_amplification(self):
        files = self.partition_files
        if not files:
            return None
        source = sum(len(self.inputs.texts[f.name].encode("utf-8")) for f in files)
        return sum(f.bytes for f in files) / source


# --- engine workload --------------------------------------------------------


def to_arrac(tr, v):
    if isinstance(v, tuple):
        return tuple(to_arrac(tr, x) for x in v)
    if isinstance(v, gen.Nested):
        return build_array(tr, v.arity, v.assoc)
    return v


def build_array(tr, arity, assoc) -> Array:
    pairs = [(i, to_arrac(tr, v)) for i, v in assoc.items()]
    with tr.span("core.Array", assoc=len(pairs)):
        return Array(arity, pairs)


class EngineWorkload:
    """Arrays built in memory; queries and partitions called in process."""

    name = "engine_mix"

    def __init__(self, inputs, workdir: Path, tracer=NULL):
        self.inputs = inputs
        arrays = {n: build_array(tracer, 2, inputs.arrays[n]) for n in QUERY_NAMES}
        self.catalog = Catalog(arrays)
        self.src = build_array(tracer, 2, inputs.arrays["SRC"])
        self.tup = build_array(tracer, 2, inputs.arrays["TUP"])
        self.preds = [qlang.parse_predicate(p) for p in inputs.vpreds]
        self.push_pred = qlang.parse_predicate("val[%d] >= %d" % inputs.push_item)
        pos, c = inputs.push_item
        self.vtexts = [gen.dumps(2, f) for f in gen.vertical_fragments(
            inputs.arrays["SRC"], len(self.preds))]
        self.htexts = [gen.dumps(2, f) for f in gen.horizontal_fragments(
            inputs.arrays["TUP"], inputs.hslices)]
        self.pushed_text = gen.dumps(
            2, {i: v for i, v in inputs.arrays["TUP"].items() if v[pos] >= c})
        self.state = {}
        self.ops = self._query_ops() + self._partition_ops()
        # warm up on the cheap queries; the cross queries would double set-up
        for q, op in zip(inputs.queries, self.ops):
            if q.text != gen.CROSS:
                op.check(op.run())

    def replay_ops(self):
        return self.ops

    def write_amplification(self):
        return None

    def _query_ops(self):
        ops = []
        for q in self.inputs.queries:
            def run(q=q):
                try:
                    return 0, qlang.evaluate(qlang.parse(q.text), self.catalog)
                except ArracError as exc:
                    return exit_code(exc), None

            def replay(tr, q=q):
                try:
                    return 0, evaluate_traced(tr, q.text, self.catalog, False)
                except ArracError as exc:
                    return exit_code(exc), None

            def check(res, q=q):
                code, out = res
                if code != q.exit:
                    return f"{q.text!r}: exit {code}, expected {q.exit}"
                if code == 0 and arrfile.dumps(out) != q.expected:
                    return f"{q.text!r}: {first_diff(arrfile.dumps(out), q.expected)}"
                return None
            ops.append(Op("query", run, check, replay, query_label(q)))
        return ops

    def _partition_ops(self):
        st = self.state

        def traced(tr, name, fn, key, **counts):
            with tr.span(name, **counts) as c:
                st[key] = out = fn()
                if isinstance(out, distribution.Placement):
                    c["fragments"] = len(out.fragments)
                else:
                    c["rows_out"] = len(out)
            return 0, out

        def op(kind, name, fn, key, check, **counts):
            def run():
                st[key] = out = fn()
                return 0, out
            return Op(kind, run, check,
                      lambda tr: traced(tr, name, fn, key, **counts))

        def fragments_check(texts, kind):
            def check(res):
                for frag, text in zip(res[1].fragments, texts):
                    got = arrfile.dumps(frag.array)
                    if got != text:
                        return f"{kind} fragment {frag.fragment_id}: {first_diff(got, text)}"
                if len(res[1].fragments) != len(texts):
                    return f"{kind}: {len(res[1].fragments)} fragments, expected {len(texts)}"
                return None
            return check

        def array_check(text, kind):
            def check(res):
                got = arrfile.dumps(res[1])
                return None if got == text else f"{kind}: {first_diff(got, text)}"
            return check

        pushed_check = array_check(self.pushed_text, "push_select")
        src_text, tup_text = self.inputs.texts["SRC"], self.inputs.texts["TUP"]
        return [
            op("vpartition", "distribution.partition_vertical",
               lambda: distribution.partition_vertical(self.src, self.preds), "vp",
               fragments_check(self.vtexts, "vertical"),
               rows_in=len(self.src), preds=len(self.preds)),
            op("vreassemble", "distribution.reassemble_vertical",
               lambda: distribution.reassemble(st["vp"]), "vr",
               array_check(src_text, "vreassemble")),
            op("hpartition", "distribution.partition_horizontal",
               lambda: distribution.partition_horizontal(self.tup, self.inputs.hslices), "hp",
               fragments_check(self.htexts, "horizontal"), rows_in=len(self.tup)),
            op("hreassemble", "distribution.reassemble_horizontal",
               lambda: distribution.reassemble(st["hp"]), "hr",
               array_check(tup_text, "hreassemble")),
            op("push_select", "distribution.push_select",
               lambda: distribution.push_select(st["hp"], self.push_pred), "ps",
               lambda res: pushed_check((0, distribution.reassemble(res[1])))),
        ]


def make(name, inputs, workdir: Path, tracer=NULL):
    if name == "engine_mix":
        return EngineWorkload(inputs, workdir, tracer)
    return CliWorkload(name, inputs, workdir)


WORKLOADS = ("cli_query", "cli_partition", "engine_mix")
