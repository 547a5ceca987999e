"""Placement manifests: a partitioning persisted as expressions plus files.

A manifest is a small JSON document describing how an array was split: the
scheme (as query-language text, so it can be re-evaluated), the fragment
file names, their shard ids, and the origin arity.  The fragments
themselves live in exchange-format files next to the manifest.  Keeping the
defining expressions in the manifest makes the distributed layout
self-describing: any engine can re-derive or audit the fragments from the
source array.
"""

from __future__ import annotations

import json
import os
from typing import Sequence, Tuple

from . import arrfile, distribution
from .distribution import Fragment, HorizontalSplit, Placement, VerticalSplit
from .errors import BadSlices, ConsistencyViolation, FormatError, ParseError
from .qlang import ast, parse_predicate, print_expr, print_pred

FORMAT = "arrac-placement v1"


def build(placement: Placement, source_text: str, files: Sequence[str]) -> dict:
    """The manifest document for a placement whose fragments go to ``files``."""
    if len(files) != len(placement.fragments):
        raise ValueError("one file name per fragment is required")
    source, scheme = ast.Ref(source_text), placement.scheme
    vertical = isinstance(scheme, VerticalSplit)
    doc = {
        "format": FORMAT,
        "kind": "vertical" if vertical else "horizontal",
        "source": source_text,
        "expression": print_expr(
            ast.VPartition(source, scheme.predicates) if vertical
            else ast.HPartition(source, scheme.slices)
        ),
        "origin_arity": placement.origin_arity,
        "fragments": [],
    }
    if vertical:
        doc["predicates"] = [print_pred(p) for p in scheme.predicates]
    else:
        doc["slices"] = [list(g) for g in scheme.slices]
    for k, (fragment, file) in enumerate(zip(placement.fragments, files)):
        entry = {
            "id": fragment.fragment_id,
            "file": file,
            "shard": fragment.shard_id,
        }
        # a vertical fragment is a selection; a horizontal one slices value
        # tuples, which no query operator does, so the placement describes it
        if vertical:
            entry["expr"] = print_expr(ast.Select(source, scheme.predicates[k]))
        doc["fragments"].append(entry)
    return doc


def save(path, doc: dict) -> None:
    arrfile.write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load(path) -> dict:
    """Read and check a manifest; each fault is a FormatError whose ``path``
    is the manifest, with the ``line`` of a JSON syntax error."""
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
        _validate(doc, path)
    except FormatError as exc:
        exc.path = os.fspath(path)
        raise
    return doc


def _validate(doc, path) -> None:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise FormatError(f"not a {FORMAT} manifest")
    kind = doc.get("kind")
    if kind not in ("vertical", "horizontal"):
        raise FormatError(f"bad kind {kind!r}")
    if not isinstance(doc.get("expression"), str):
        raise FormatError("expression must be query text")
    if kind == "vertical" and not doc.get("predicates"):
        raise FormatError("vertical manifest without predicates")
    if kind == "horizontal" and not doc.get("slices"):
        raise FormatError("horizontal manifest without slices")
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
        predicates = doc["predicates"]
        if not isinstance(predicates, list) or not all(isinstance(p, str) for p in predicates):
            raise FormatError("predicates must be a list of query texts")
        if len(predicates) != len(fragments):
            raise FormatError("predicate/fragment count mismatch")
    if kind == "horizontal":
        slices = doc["slices"]
        if not isinstance(slices, list) or not all(
            isinstance(s, list)
            and all(isinstance(p, int) and not isinstance(p, bool) for p in s)
            for s in slices
        ):
            raise FormatError("slices must be lists of integer positions")
        try:
            distribution._check_slices(slices, None)
        except BadSlices as exc:
            raise FormatError(str(exc)) from exc
        if len(slices) != len(fragments):
            raise FormatError("slice/fragment count mismatch")


def load_placement(manifest_path) -> Tuple[Placement, dict]:
    """Read a manifest and its fragment files back into a Placement.

    Fragment files are resolved relative to the manifest's directory.
    """
    doc = load(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    if doc["kind"] == "vertical":
        scheme = VerticalSplit(
            tuple(_parsed(parse_predicate, text, manifest_path) for text in doc["predicates"])
        )
    else:
        scheme = HorizontalSplit(doc["slices"])
    fragments = []
    for entry in doc["fragments"]:
        array, _ = arrfile.load(os.path.join(base, entry["file"]))
        fragments.append(Fragment(entry["id"], array, entry["shard"]))
    return Placement(tuple(fragments), scheme, doc["origin_arity"]), doc


def _parsed(parse_text, text: str, where):
    """Parse query text stored in a manifest; text that does not parse is a file fault."""
    try:
        return parse_text(text)
    except ParseError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def check_fragments(placement: Placement, doc: dict, catalog) -> None:
    """Re-evaluate the manifest's expression and compare against the files.

    Raises ConsistencyViolation naming the first fragment whose stored file
    disagrees with what the expression computes from the catalog.
    """
    from .qlang import evaluate, parse

    recomputed = evaluate(_parsed(parse, doc["expression"], "manifest expression"), catalog)
    if not isinstance(recomputed, distribution.Placement):
        raise ConsistencyViolation("manifest expression is not a partitioning")
    if len(recomputed.fragments) != len(placement.fragments):
        raise ConsistencyViolation("manifest expression yields a different fragment count")
    for stored, fresh in zip(placement.fragments, recomputed.fragments):
        if stored.array != fresh.array:
            raise ConsistencyViolation(
                f"fragment {stored.fragment_id!r} does not match its defining expression"
            )
