"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [--claim WORKLOAD:METRIC]

Each file holds the records that ``bench/run.py --record FILE`` appended;
traced records are skipped.  Run both commits with the same seeds and
``--seconds``, alternating which side runs first; pair i is the i-th parent
run and the i-th change run of a workload.

For every workload and end-to-end metric this prints each side's median and
quartiles, the ratio change / parent, and a verdict:

* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
* ``better``: it is better by more than the parent's own spread (the
  distance between its quartiles, as a share of its median);
* ``within bound``: neither;
* ``unresolved``: the parent's spread is wider than the bound, unless every
  change run beats every parent run (then ``better``).

Bounds and directions come from BENCHMARK.json.  The per-operation medians
it does not list (``*_p50_ms``) take those of ``latency_p50_ms``; the other
unlisted metrics (``fail_ratio``, ``write_amplification``) get quartiles and
a ratio but no verdict.  ``--claim`` adds, for that metric,
the pairs the change won out of the pairs run: a claim holds only when it
wins at least nine tenths of them (ties count for neither side) and the
medians differ by more than the parent's spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read(path) -> dict:
    """workload -> metric -> values, in file order."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)["record"]
            if rec["trace"]:
                continue
            per = runs.setdefault(rec["workload"], {})
            for name, m in rec["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, lower_is_better, bound) -> str:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1 if lower_is_better else -1
    spread = (p3 - p1) / pm if pm else 0.0
    if spread > bound:
        beats = all(sign * c < sign * p for c in change for p in parent)
        return "better" if beats else "unresolved"
    if pm == 0:
        return "worse" if sign * cm > 0 else "within bound"
    worse_by = sign * (cm - pm) / pm
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "within bound"


def claim(parent, change, lower_is_better) -> str:
    sign = 1 if lower_is_better else -1
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * c < sign * p)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    holds = won >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1
    return (f"won {won} of {len(pairs)} pairs (needs {0.9 * len(pairs):.1f}); "
            f"median moved {abs(cm - pm):.4g} against parent spread {p3 - p1:.4g}: "
            + ("claim holds" if holds else "claim not met"))


def rule(spec, name):
    """The BENCHMARK.json entry whose bound and direction apply to a metric,
    or None when no verdict is given for it."""
    if name in spec:
        return spec[name]
    if name.endswith("_p50_ms"):
        return spec["latency_p50_ms"]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)
    spec = {m["name"]: m for m in json.loads(SPEC.read_text(encoding="utf-8"))["end_to_end"]}
    parent, change = read(args.parent), read(args.change)
    claims = {tuple(c.split(":", 1)) for c in args.claim}

    head = f"{'metric':24} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7}  verdict"
    for workload in parent:
        if workload not in change:
            print(f"{workload}: no change runs")
            continue
        p_runs, c_runs = parent[workload], change[workload]
        print(f"\n{workload}  ({len(next(iter(p_runs.values())))} parent runs, "
              f"{len(next(iter(c_runs.values())))} change runs)")
        print(head)
        names = [n for n in spec if n in p_runs] + [n for n in p_runs if n not in spec]
        for name in names:
            if name not in c_runs:
                continue
            p, c = p_runs[name], c_runs[name]
            m = rule(spec, name)
            pq, cq = quartiles(p), quartiles(c)
            ratio = f"{cq[1] / pq[1]:.3f}" if pq[1] else "-"
            cols = ["/".join(f"{x:.4g}" for x in q) for q in (pq, cq)]
            if m is None:
                print(f"{name:24} {cols[0]:>32} {cols[1]:>32} {ratio:>7}  -")
                continue
            lower = m["better"] == "lower"
            print(f"{name:24} {cols[0]:>32} {cols[1]:>32} {ratio:>7}  "
                  f"{verdict(p, c, lower, m['bound'])}")
            if (workload, name) in claims:
                print(f"  claim {workload}:{name}: {claim(p, c, lower)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
