"""Command line front end.

A catalog is a directory of ``<name>.arr`` exchange files; queries resolve
names against it.  Results go to stdout (or ``-o``) in the canonical
exchange text, diagnostics go to stderr only, and failures map to stable
exit codes:

    0  success
    2  query text does not parse (also argparse usage errors)
    3  name resolution or static arity errors
    4  runtime engine errors (conflicts, bad schemes, ...)
    5  file and format errors
    1  anything unexpected
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# CPython's builtin sha256 where it has one (3.10 and 3.11): importing hashlib
# loads OpenSSL, about 3 ms a command on a 2-vCPU host with Python 3.11, where
# the builtin module takes 0.3 ms to import and 0.3 ms more to hash 80 kB.
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

# manifest (and with it json) and relbridge (and with it csv) are imported
# inside the commands that use them, so that a query pays for neither at
# start-up.
from . import __version__, arrfile, distribution, qlang
from .errors import ArityError, ArracError, FormatError, ParseError, UnboundName
from .qlang import Catalog

# The memo of a catalog directory: a header, then one "<file> <sha256>" line
# for each catalog file whose bytes fully parsed.
_MEMO = ".arrac-parsed"
_MEMO_HEADER = f"arrac-parsed v1 {__version__}"
_MEMO_LINE = re.compile(r"\S+ [0-9a-f]{64}")


def _read_memo(path: str) -> tuple:
    """The text of the memo at ``path`` and the digests it vouches for; an
    empty text and no digests if it is missing, garbled or from another
    version."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return "", frozenset()
    lines = text.split("\n")
    listed = lines[1:-1]
    if lines[0] != _MEMO_HEADER or lines[-1] or not all(map(_MEMO_LINE.fullmatch, listed)):
        return "", frozenset()
    return text, frozenset(line[-64:] for line in listed)


def _load_catalog(directory: str) -> Catalog:
    """Every ``<name>.arr`` file of ``directory``, checked and bound with its
    labels; a file whose stem is not a name is skipped with a warning,
    unread.

    Each file's bytes are read and hashed.  A file whose sha256 the
    directory's memo (``.arrac-parsed``) lists is bound to be parsed when
    the command first names it; any other file is parsed now, so a fault in
    it fails the command at its line.  The memo is then rewritten, if that
    changes it, to list each bound file with its digest.  It is a hint: a
    memo that is missing, unreadable or unwritable costs a parse, no more.
    """
    if not os.path.isdir(directory):
        raise FormatError(f"catalog directory {directory!r} does not exist")
    memo_path = os.path.join(directory, _MEMO)
    old_memo, vouched = _read_memo(memo_path)
    listed = []
    catalog = Catalog()
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".arr"):
            continue
        name = filename[: -len(".arr")]
        if not qlang.ast.NAME_RE.match(name):
            print(f"warning: skipping {filename}: unusable name", file=sys.stderr)
            continue
        path = os.path.join(directory, filename)
        with open(path, "rb") as fh:
            data = fh.read()
        digest = sha256(data).hexdigest()
        parsed = None if digest in vouched else arrfile.load(path, data)
        if parsed is None:
            catalog.bind_file(name, path)
        else:
            catalog.bind(name, *parsed)
        listed.append(f"{filename} {digest}")
    memo = "\n".join([_MEMO_HEADER, *listed, ""])
    if memo != old_memo:
        try:
            arrfile.write_atomic(memo_path, memo)
        except OSError:
            pass
    return catalog


def _catalog_file(args) -> tuple:
    """The name ``load`` and ``encode-table`` bind, ``--name`` or the input
    file's stem, and the catalog file they write it to."""
    name = args.name or os.path.splitext(os.path.basename(args.path))[0]
    if not qlang.ast.NAME_RE.match(name):
        raise FormatError(f"{name!r} is not a usable array name")
    os.makedirs(args.catalog, exist_ok=True)
    return name, os.path.join(args.catalog, name + ".arr")


def _emit(text: str, output) -> None:
    if output:
        arrfile.write_atomic(output, text)
    else:
        sys.stdout.write(text)


# --- commands ----------------------------------------------------------


def _cmd_query(args) -> int:
    catalog = _load_catalog(args.catalog)
    expr = qlang.parse(args.expr)
    kind = qlang.typecheck(expr, catalog)
    if kind.sort != "array":
        raise ArityError(
            "query evaluates to a placement; use the vpartition/hpartition "
            "commands to materialize one"
        )
    if args.explain:
        planned, fired = qlang.plan(expr, catalog)
        print(qlang.print_expr(planned), file=sys.stderr)
        for rule, (line, column) in fired:
            print(f"rule {rule} at line {line}, column {column}", file=sys.stderr)
    result = qlang.evaluate(expr, catalog)
    _emit(arrfile.dumps(result), args.output)
    return 0


def _cmd_load(args) -> int:
    array, labels = arrfile.load(args.path)
    name, path = _catalog_file(args)
    arrfile.save(path, array, labels)
    print(
        f"loaded {name}: arity {array.arity}, {len(array)} associations",
        file=sys.stderr,
    )
    return 0


def _cmd_save(args) -> int:
    catalog = _load_catalog(args.catalog)
    array = catalog.array(args.name)
    path = args.output or args.name + ".arr"
    arrfile.save(path, array, catalog.labels(args.name))
    print(f"saved {args.name} to {path}", file=sys.stderr)
    return 0


def _shard_list(args, count: int):
    """The ``--shards`` ids, one per fragment; another number is a usage error."""
    if not args.shards:
        return None
    shards = [s for s in args.shards.split(",") if s]
    if len(shards) != count:
        args.parser.error(f"--shards: expected {count} shard ids, got {len(shards)}")
    return shards


def _cmd_partition(args) -> int:
    from . import manifest

    array = _load_catalog(args.catalog).array(args.name)
    if args.command == "vpartition":
        scheme = [qlang.parse_predicate(text) for text in args.by]
        split = distribution.partition_vertical
    else:
        scheme = qlang.parse_slices(args.slices)
        split = distribution.partition_horizontal
    placement = split(array, scheme, _shard_list(args, len(scheme)))
    path = manifest.write(placement, args.name, args.output or ".")
    print(f"wrote {len(placement.fragments)} fragments and {path}", file=sys.stderr)
    return 0


def _cmd_reassemble(args) -> int:
    from . import manifest

    placement, doc = manifest.load_placement(args.manifest)
    if args.verify:
        manifest.check_fragments(placement, doc, _load_catalog(args.catalog))
    result = distribution.reassemble(placement)
    _emit(arrfile.dumps(result), args.output)
    return 0


# --- delimited tables ----------------------------------------------------


def _delimiter(text: str) -> str:
    """An argparse type: a field delimiter the csv module accepts."""
    import csv

    try:
        csv.reader((), delimiter=text)
    except TypeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _cmd_encode_table(args) -> int:
    from . import relbridge

    array, labels = relbridge.read_delimited(args.path, args.delimiter)
    path = args.output or _catalog_file(args)[1]
    arrfile.save(path, array, labels)
    rows = len({index[0] for index in array.support()})
    print(
        f"encoded {rows} rows x {len(labels.labels_for(1))} columns to {path}",
        file=sys.stderr,
    )
    return 0


def _cmd_decode_table(args) -> int:
    from . import relbridge

    if qlang.ast.NAME_RE.match(args.source):
        catalog = _load_catalog(args.catalog)
        array, labels = catalog.array(args.source), catalog.labels(args.source)
    else:
        array, labels = arrfile.load(args.source)
    _emit(relbridge.format_delimited(array, labels, args.delimiter), args.output)
    return 0


# --- argument parsing and dispatch ---------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrac",
        description="Sparse array algebra: query, store and partition arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, output_help=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("-c", "--catalog", default=".", help="catalog directory (default: .)")
        if output_help:
            p.add_argument("-o", "--output", default=None, help=output_help)
        p.set_defaults(func=func, parser=p)
        return p

    to_stdout = "write the result here instead of stdout"
    to_directory = "output directory for fragments + manifest (default: .)"

    p = command("query", _cmd_query, "evaluate a query expression", to_stdout)
    p.add_argument("expr", help="query text, e.g. 'select(M, val = \"b\")'")
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the planned query and the rewrite rules that fired to stderr",
    )

    p = command("load", _cmd_load, "validate an exchange file into the catalog")
    p.add_argument("path", help="exchange file to load")
    p.add_argument("--name", default=None, help="catalog name (default: file stem)")

    p = command(
        "save", _cmd_save, "write a catalog array to a file",
        "destination path (default: <name>.arr)",
    )
    p.add_argument("name", help="catalog array name")

    p = command("vpartition", _cmd_partition, "split by disjoint index predicates", to_directory)
    p.add_argument("name", help="catalog array name")
    p.add_argument(
        "--by",
        action="append",
        required=True,
        metavar="PRED",
        help="partition predicate, e.g. 'dim0 = 0' (repeatable)",
    )
    p.add_argument("--shards", default=None, help="comma-separated shard ids")

    p = command("hpartition", _cmd_partition, "split tuple values across fragments", to_directory)
    p.add_argument("name", help="catalog array name")
    p.add_argument(
        "--slices",
        required=True,
        help="value positions per fragment, e.g. '[{0}, {1, 2}]'",
    )
    p.add_argument("--shards", default=None, help="comma-separated shard ids")

    p = command("reassemble", _cmd_reassemble, "rebuild an array from a manifest", to_stdout)
    p.add_argument("manifest", help="placement manifest path")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-evaluate the manifest's scheme against the catalog first",
    )

    p = command(
        "encode-table", _cmd_encode_table, "delimited text to a labelled 2-d array",
        "write the .arr here instead of into the catalog",
    )
    p.add_argument("path", help="delimited input; header names columns, '*' marks the key")
    p.add_argument("--name", default=None, help="catalog name (default: file stem)")
    p.add_argument("--delimiter", default=",", type=_delimiter, help="field delimiter (default: ,)")

    p = command(
        "decode-table", _cmd_decode_table, "labelled 2-d array back to delimited text",
        "write the table here instead of stdout",
    )
    p.add_argument("source", help="catalog array name; any other SOURCE is an .arr file path")
    p.add_argument("--delimiter", default=",", type=_delimiter, help="field delimiter (default: ,)")

    return parser


def _print_diagnostic(exc: ArracError, source_text) -> None:
    print(f"error: {exc}", file=sys.stderr)
    if exc.span is not None and source_text is not None:
        line, column = exc.span
        src_lines = source_text.split("\n")
        if 1 <= line <= len(src_lines):
            print(f"  --> line {line}, column {column}", file=sys.stderr)
            print(f"  {src_lines[line - 1]}", file=sys.stderr)
            print("  " + " " * (column - 1) + "^", file=sys.stderr)
    if isinstance(exc, ParseError) and exc.expected:
        print("  expected: " + ", ".join(sorted(exc.expected)), file=sys.stderr)
    if isinstance(exc, FormatError) and exc.path is not None:
        at = "" if exc.line is None else f", line {exc.line}"
        print(f"  --> {exc.path}{at}", file=sys.stderr)


def _exit_code(exc: ArracError) -> int:
    if isinstance(exc, ParseError):
        return 2
    if isinstance(exc, (UnboundName, ArityError)):
        return 3
    if isinstance(exc, FormatError):
        return 5
    return 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    source_text = getattr(args, "expr", None)
    try:
        return args.func(args)
    except ArracError as exc:
        _print_diagnostic(exc, source_text)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return 1
