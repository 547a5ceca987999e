"""Spans recorded around the benchmark's own calls into arrac, and the
per-layer metrics derived from them.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
position of the enclosing span in :attr:`Tracer.spans` (None at the top),
``op`` the operation it belongs to, and ``counts`` a dict of work counts
(rows, associations, bytes) filled in by the caller.  Spans stay in memory
until :meth:`Tracer.write` runs at the end.  No span is placed inside arrac
itself.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def span(self, name, **counts):
        return _Span(self, name, counts)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op, counts) in enumerate(self.spans):
                rec = {
                    "id": k, "name": name, "parent": parent, "op": op,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                }
                rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        stack = tracer._stack
        self.rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, counts]

    def __enter__(self):
        tr = self.tracer
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = perf_counter()
        return self.rec[5]

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer._stack.pop()
        return False


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    def span(self, name, **counts):
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
NULL = NullTracer()


# --- per-layer metrics ---------------------------------------------------

ALGEBRA_OPS = ("select", "project", "cross", "union", "equi_join", "semi_join", "anti_join")
DIST_OPS = (
    "partition_vertical", "partition_horizontal",
    "reassemble_vertical", "reassemble_horizontal", "push_select",
)
# The span around the node-by-node replay of a query: it stands for no call
# the CLI handler makes, so it is left out of what a command is credited with.
REPLAY_ONLY = "replay.nodes"


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, cycles: int, extra: dict) -> dict:
    """Per-layer metrics, every time and count summed per cycle of the
    workload, except those marked per op (medians over operations).

    ``extra`` carries what the spans cannot give: ``startup_ms``,
    ``cli_wall_ms`` (op id -> wall time of the real command) and
    ``overhead_pct``.
    """
    own = self_times(spans)
    ms = {}
    counts = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    replay_ms = {}
    root_ms = {}
    catalog_ms = []
    for k, (name, start, end, parent, op, cnt) in enumerate(spans):
        ms[name] = ms.get(name, 0.0) + own[k] * 1000
        for key, value in cnt.items():
            add(f"{name}.{key}", value)
        if parent is None:
            root_ms[op] = (end - start) * 1000
        if name == REPLAY_ONLY:
            replay_ms[op] = replay_ms.get(op, 0.0) + (end - start) * 1000
        if name == "cli.catalog_load":
            catalog_ms.append((end - start) * 1000)
        if name == "algebra.select":
            add("tests", cnt["rows_in"])
            add("test_ms", (end - start) * 1000)
        if name == "distribution.partition_vertical":
            add("tests", cnt["rows_in"] * cnt["preds"])
            add("test_ms", (end - start) * 1000)

    def per_cycle(value):
        return value / cycles

    def span_ms(name):
        return per_cycle(ms.get(name, 0.0))

    def count(key):
        return per_cycle(counts.get(key, 0))

    out = {}
    cli_wall = extra.get("cli_wall_ms", {})
    startup = extra.get("startup_ms", 0.0)
    out["cli.startup_ms"] = (startup, "ms")
    out["cli.catalog_load_ms"] = (
        statistics.median(catalog_ms) if catalog_ms else 0.0, "ms")
    unattributed = [
        wall - startup - (root_ms.get(op, 0.0) - replay_ms.get(op, 0.0))
        for op, wall in cli_wall.items()
    ]
    out["cli.unattributed_ms"] = (
        statistics.median(unattributed) if unattributed else 0.0, "ms")

    loads_ms = span_ms("arrfile.load")
    loads_assoc = count("arrfile.load.assoc")
    dumps_ms = span_ms("arrfile.dumps") + span_ms("arrfile.save")
    dumps_assoc = count("arrfile.dumps.assoc") + count("arrfile.save.assoc")
    out["arrfile.loads_ms"] = (loads_ms, "ms")
    out["arrfile.loads_assoc"] = (loads_assoc, "count")
    out["arrfile.loads_us_per_assoc"] = (
        loads_ms * 1000 / loads_assoc if loads_assoc else 0.0, "us")
    out["arrfile.dumps_ms"] = (dumps_ms, "ms")
    out["arrfile.dumps_assoc"] = (dumps_assoc, "count")
    out["arrfile.dumps_us_per_assoc"] = (
        dumps_ms * 1000 / dumps_assoc if dumps_assoc else 0.0, "us")
    out["arrfile.bytes_written"] = (
        count("arrfile.dumps.bytes") + count("arrfile.save.bytes"), "bytes")

    for name in ("parse", "typecheck", "evaluate"):
        out[f"qlang.{name}_ms"] = (span_ms(f"qlang.{name}"), "ms")
    for name in ALGEBRA_OPS:
        out[f"algebra.{name}_ms"] = (span_ms(f"algebra.{name}"), "ms")
        out[f"algebra.{name}_rows_in"] = (count(f"algebra.{name}.rows_in"), "count")
        out[f"algebra.{name}_rows_out"] = (count(f"algebra.{name}.rows_out"), "count")
    out["transforms.apply_steps_ms"] = (span_ms("transforms.apply_steps"), "ms")

    tests = counts.get("tests", 0)
    out["predicates.tests"] = (count("tests"), "count")
    out["predicates.ns_per_test"] = (
        counts["test_ms"] * 1e6 / tests if tests else 0.0, "ns")

    for name in DIST_OPS:
        out[f"distribution.{name}_ms"] = (span_ms(f"distribution.{name}"), "ms")
    out["distribution.fragments"] = (
        count("distribution.partition_vertical.fragments")
        + count("distribution.partition_horizontal.fragments"), "count")

    out["manifest.build_ms"] = (span_ms("manifest.build"), "ms")
    out["manifest.save_ms"] = (span_ms("manifest.save"), "ms")
    out["manifest.load_placement_ms"] = (span_ms("manifest.load_placement"), "ms")

    out["core.array_ms"] = (ms.get("core.Array", 0.0), "ms")
    out["core.assoc_built"] = (counts.get("core.Array.assoc", 0), "count")
    out["trace.overhead_pct"] = (extra.get("overhead_pct", 0.0), "%")
    return out
