"""Placement manifests: a partitioning persisted as its scheme plus files.

A manifest is a small JSON document describing how an array was split: the
source array's catalog name, the scheme (``predicates`` or ``slices``), the
fragment file names, their shard ids, and the origin arity.  The fragments
themselves live in exchange-format files next to the manifest; only
:func:`write` and :func:`load_placement` know their names.  The scheme
over the source is one partition expression, :func:`partition_tree`; the
manifest prints it as ``expression`` for readers, a reader refuses a
manifest whose ``expression`` says anything else, and ``--verify``
re-evaluates the tree against the catalog to audit the fragments.
"""

from __future__ import annotations

import json
import os
from typing import Sequence, Tuple

from . import arrfile, distribution
from .distribution import (
    Fragment, HorizontalSplit, PartitionScheme, Placement, VerticalSplit,
)
from .errors import BadSlices, ConsistencyViolation, FormatError, ParseError, PredicateArity
from .predicates import check_dims
from .qlang import ast, evaluate, parse_predicate, print_expr, print_pred

FORMAT = "arrac-placement v1"


def partition_tree(source: str, scheme: PartitionScheme) -> ast.Expr:
    """The partition expression that applies ``scheme`` to the array ``source``."""
    if isinstance(scheme, VerticalSplit):
        return ast.VPartition(ast.Ref(source), scheme.predicates)
    return ast.HPartition(ast.Ref(source), scheme.slices)


def build(placement: Placement, source_text: str, files: Sequence[str]) -> dict:
    """The manifest document for a placement whose fragments go to ``files``."""
    if len(files) != len(placement.fragments):
        raise ValueError("one file name per fragment is required")
    scheme = placement.scheme
    doc = {
        "format": FORMAT,
        "source": source_text,
        "expression": print_expr(partition_tree(source_text, scheme)),
        "origin_arity": placement.origin_arity,
        "fragments": [
            {"id": fragment.fragment_id, "file": file, "shard": fragment.shard_id}
            for fragment, file in zip(placement.fragments, files)
        ],
    }
    if isinstance(scheme, VerticalSplit):
        doc.update(kind="vertical", predicates=[print_pred(p) for p in scheme.predicates])
    else:
        doc.update(kind="horizontal", slices=[list(g) for g in scheme.slices])
    return doc


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
    """Check a manifest document and build the one scheme it states."""
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
    if kind == "vertical":
        predicates = doc.get("predicates")
        if not isinstance(predicates, list) or not all(isinstance(p, str) for p in predicates):
            raise FormatError("predicates must be a list of query texts")
        if len(predicates) != len(fragments):
            raise FormatError("predicate/fragment count mismatch")
        try:
            scheme = VerticalSplit([parse_predicate(text) for text in predicates])
            for pred in scheme.predicates:
                check_dims(pred, arity)
        except (ParseError, PredicateArity) as exc:
            raise FormatError(f"bad predicate: {exc}") from exc
    else:
        slices = doc.get("slices")
        if not isinstance(slices, list) or not all(
            isinstance(s, list)
            and all(isinstance(p, int) and not isinstance(p, bool) for p in s)
            for s in slices
        ):
            raise FormatError("slices must be lists of integer positions")
        try:
            scheme = HorizontalSplit(distribution._check_slices(slices, None))
        except BadSlices as exc:
            raise FormatError(str(exc)) from exc
        if len(slices) != len(fragments):
            raise FormatError("slice/fragment count mismatch")
    expression = print_expr(partition_tree(source, scheme))
    if doc.get("expression") != expression:
        raise FormatError(
            f"expression {doc.get('expression')!r} is not the scheme's {expression!r}"
        )
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
