"""Placement manifests: a partitioning persisted as its scheme plus files.

A manifest is a small JSON document describing how an array was split: the
source array's catalog name, the scheme, the fragment file names, their
shard ids, and the origin arity.  The fragments themselves live in
exchange-format files next to the manifest; only :func:`write` and
:func:`load_placement` know their names.  The scheme over the source is one
partition expression, :func:`partition_tree`, stored as ``expression``;
``kind`` and ``predicates`` or ``slices`` restate it for readers.  A reader
takes the scheme from ``expression`` through the query parser and checker,
refuses a manifest whose other scheme fields are not what :func:`build`
writes for it, and with ``--verify`` re-evaluates the tree against the
catalog to audit the fragments.
"""

from __future__ import annotations

import json
import os
from typing import Sequence, Tuple

from . import arrfile
from .core import Array
from .distribution import (
    Fragment, HorizontalSplit, PartitionScheme, Placement, VerticalSplit,
)
from .errors import ArityError, ConsistencyViolation, FormatError, ParseError
from .qlang import ast, evaluate, parse, print_expr, print_pred, typecheck

FORMAT = "arrac-placement v1"


def partition_tree(source: str, scheme: PartitionScheme) -> ast.Expr:
    """The partition expression that applies ``scheme`` to the array ``source``."""
    if isinstance(scheme, VerticalSplit):
        return ast.VPartition(ast.Ref(source), scheme.predicates)
    return ast.HPartition(ast.Ref(source), scheme.slices)


def _scheme_fields(source: str, scheme: PartitionScheme) -> dict:
    """The fields that state ``scheme`` over ``source`` in a manifest: its
    expression, its kind, and its predicates or slices."""
    fields = {"expression": print_expr(partition_tree(source, scheme))}
    if isinstance(scheme, VerticalSplit):
        return dict(fields, kind="vertical", predicates=[print_pred(p) for p in scheme.predicates])
    return dict(fields, kind="horizontal", slices=[list(g) for g in scheme.slices])


def build(placement: Placement, source_text: str, files: Sequence[str]) -> dict:
    """The manifest document for a placement whose fragments go to ``files``."""
    if len(files) != len(placement.fragments):
        raise ValueError("one file name per fragment is required")
    return {
        "format": FORMAT,
        "source": source_text,
        "origin_arity": placement.origin_arity,
        "fragments": [
            {"id": fragment.fragment_id, "file": file, "shard": fragment.shard_id}
            for fragment, file in zip(placement.fragments, files)
        ],
        **_scheme_fields(source_text, placement.scheme),
    }


def save(path, doc: dict) -> None:
    arrfile.write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write(placement: Placement, source: str, outdir) -> str:
    """Write each fragment to ``<source>.<id>.arr`` in ``outdir``, then the
    manifest, last, to ``<source>.manifest.json``; the manifest's path."""
    os.makedirs(outdir, exist_ok=True)
    files = [f"{source}.{fragment.fragment_id}.arr" for fragment in placement.fragments]
    for fragment, file in zip(placement.fragments, files):
        arrfile.save(os.path.join(outdir, file), fragment.array)
    path = os.path.join(outdir, f"{source}.manifest.json")
    save(path, build(placement, source, files))
    return path


def _scheme(doc, path) -> PartitionScheme:
    """Check a manifest document and build the scheme its expression states."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise FormatError(f"not a {FORMAT} manifest")
    kind = doc.get("kind")
    if kind not in ("vertical", "horizontal"):
        raise FormatError(f"bad kind {kind!r}")
    source = doc.get("source")
    if not isinstance(source, str) or not ast.NAME_RE.match(source):
        raise FormatError(f"source {source!r} is not a catalog array name")
    fragments = doc.get("fragments")
    if not isinstance(fragments, list) or not fragments:
        raise FormatError("manifest lists no fragments")
    base = os.path.dirname(os.path.abspath(path))
    for entry in fragments:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("id", "file", "shard")
        ):
            raise FormatError(f"bad fragment entry {entry!r}")
        file = entry["file"]
        target = os.path.normpath(os.path.join(base, file))
        if os.path.isabs(file) or os.path.commonpath([base, target]) != base:
            raise FormatError(f"fragment file {file!r} is outside the manifest's directory")
    ids = [entry["id"] for entry in fragments]
    if len(set(ids)) != len(ids):
        raise FormatError("fragment ids must be unique")
    arity = doc.get("origin_arity")
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise FormatError("bad origin_arity")
    text = doc.get("expression")
    if not isinstance(text, str):
        raise FormatError(f"bad expression {text!r}")
    try:
        tree = parse(text)
    except ParseError as exc:
        raise FormatError(f"bad expression: {exc}") from exc
    if not isinstance(tree, (ast.VPartition, ast.HPartition)) or tree.child != ast.Ref(source):
        raise FormatError(f"expression {text!r} does not partition {source!r}")
    vertical = isinstance(tree, ast.VPartition)
    parts = tree.predicates if vertical else tree.slices
    # the shape checks the partition commands run, on an empty origin
    try:
        typecheck(tree, ast.Catalog({source: Array._of(arity, {})}))
    except ArityError as exc:
        raise FormatError(f"bad predicate: {exc}" if vertical else str(exc)) from exc
    scheme = (VerticalSplit if vertical else HorizontalSplit)(parts)
    for key, expected in _scheme_fields(source, scheme).items():
        stored = doc.get(key)
        # JSON text, unlike ==, tells 1 from true and from 1.0
        if stored != expected or json.dumps(stored) != json.dumps(expected):
            raise FormatError(f"{key} {stored!r} is not the expression's {expected!r}")
    if len(parts) != len(fragments):
        raise FormatError(f"{'predicate' if vertical else 'slice'}/fragment count mismatch")
    return scheme


def load_placement(path) -> Tuple[Placement, dict]:
    """Read and check a manifest, then its fragment files, resolved relative
    to the manifest's directory: the Placement, and the document.

    Each fault in the manifest is a FormatError whose ``path`` is the
    manifest, with the ``line`` of a JSON syntax error.
    """
    if not os.path.exists(path):
        raise FormatError(f"no such manifest: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"manifest is not valid JSON: {exc}", line=exc.lineno) from exc
            # an integer past int()'s digit limit, or nesting deeper than the
            # decoder's recursion allows
            except (ValueError, RecursionError) as exc:
                raise FormatError(f"manifest is not valid JSON: {exc}") from exc
        scheme = _scheme(doc, path)
    except FormatError as exc:
        exc.path = os.fspath(path)
        raise
    base = os.path.dirname(os.path.abspath(path))
    fragments = [
        Fragment(entry["id"], arrfile.load(os.path.join(base, entry["file"]))[0], entry["shard"])
        for entry in doc["fragments"]
    ]
    return Placement(fragments, scheme, doc["origin_arity"]), doc


def check_fragments(placement: Placement, doc: dict, catalog) -> None:
    """Re-evaluate the manifest's partition tree and compare against the files.

    Raises ConsistencyViolation naming the first fragment whose stored file
    disagrees with what the tree computes from the catalog.
    """
    fresh = evaluate(partition_tree(doc["source"], placement.scheme), catalog)
    for stored, recomputed in zip(placement.fragments, fresh.fragments):
        if stored.array != recomputed.array:
            raise ConsistencyViolation(
                f"fragment {stored.fragment_id!r} does not match its defining expression"
            )
