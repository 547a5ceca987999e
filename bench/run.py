"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload cli_query --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program measured is ``src/arrac`` of
that checkout, and every file the run writes stays under ``.bench_work``
(removed at the end) and ``.bench_results`` (span files).

``--trace 0`` sets up the workload several times (``setup_s`` is the median),
then drives one closed loop with a single client: the next operation starts
when the previous one has finished and been checked.  Whole cycles of the
workload run until ``--seconds`` have passed and at least 100 operations are
done.  ``--trace 1`` replays the same operations in process with spans
around every call into arrac, and reports per-layer metrics instead.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}`` with exactly the metrics BENCHMARK.json names for the mode.
The line before it is the full record (provenance, every metric that
applies to the workload, the first mismatch); ``--record FILE`` also appends
that record to FILE for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_query", "cli_partition", "engine_mix")
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = {"full": 100, "tiny": 1}  # so at least ten samples lie above p90


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the smoke test only")
    p.add_argument("--record", default=None,
                   help="append the full result record to this JSON-lines file")
    return p.parse_args(argv)


def quantile(values, q):
    """Inclusive quantile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def attempt(op, call):
    """Run one operation and check it; returns (seconds, result, error)."""
    t = perf_counter()
    try:
        res = call()
    except Exception as exc:  # an engine bug: counts as a failed operation
        return perf_counter() - t, None, f"{op.kind}: {exc!r}"
    dt = perf_counter() - t
    try:
        return dt, res, op.check(res)
    except Exception as exc:
        return dt, res, f"{op.kind}: checking raised {exc!r}"


def setup(name, seed, scale, work, tracer=None):
    """Generate inputs and set the workload up; returns (workload, seconds)."""
    import gen
    import tracing
    import workloads

    t = perf_counter()
    wl = workloads.make(name, gen.Inputs(seed, scale), work, tracer or tracing.NULL)
    return wl, perf_counter() - t


def timed_run(args, work):
    times = []
    for k in range(SETUPS):
        wl = None  # release the previous set-up before building the next
        gc.collect()
        if k:
            shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        wl, seconds = setup(args.workload, args.seed, args.scale, work / f"setup{k}")
        times.append(seconds)
    # the benchmark's inputs and references stay alive for the whole run;
    # keep them out of the collector's way, so they do not slow the engine
    gc.freeze()
    cli = args.workload != "engine_mix"
    setup_rss = peak_rss_mb(cli)

    samples = []  # (op, seconds, error)
    cycles = 0
    t0 = perf_counter()
    while True:
        for op in wl.ops:
            dt, _, err = attempt(op, op.run)
            samples.append((op, dt, err))
        cycles += 1
        elapsed = perf_counter() - t0
        if elapsed >= args.seconds and (
                len(samples) >= MIN_OPS[args.scale] or elapsed >= 3 * args.seconds):
            break

    lat = [dt * 1000 for _, dt, _ in samples]
    errors = [err for _, _, err in samples if err]
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_s": (len(samples) / sum(dt for _, dt, _ in samples), "ops/s"),
        "latency_p50_ms": (quantile(lat, 0.5), "ms"),
        "latency_p90_ms": (quantile(lat, 0.9), "ms"),
        "fail_ratio": (len(errors) / len(samples), "1"),
        "peak_rss_mb": (peak_rss_mb(cli), "MB"),
    }
    groups = {}  # kind or label -> latencies in ms
    for op, dt, _ in samples:
        for key in filter(None, (op.kind, op.label)):
            groups.setdefault(key, []).append(dt * 1000)
    for key, kl in groups.items():
        metrics[f"{key}_p50_ms"] = (statistics.median(kl), "ms")
    amp = wl.write_amplification()
    if amp is not None:
        metrics["write_amplification"] = (amp, "1")
    extra = {
        "cycles": cycles,
        "elapsed_s": perf_counter() - t0,
        "setup_times_s": times,
        # the RSS high-water mark before the timed phase: when peak_rss_mb
        # equals it, set-up, not the measured operations, set the peak
        "peak_rss_after_setup_mb": setup_rss,
        "ops_by_group": {k: len(v) for k, v in groups.items()},
    }
    return wl, metrics, len(samples), errors, extra


def startup_probe(env) -> float:
    """Wall time, in ms, of an interpreter that only imports arrac.cli."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import arrac.cli"], env=env, check=True)
    return (perf_counter() - t) * 1000


def root_span(tr, kind, rop):
    with tr.span("op." + kind):
        return rop.replay(tr)


def traced_run(args, work):
    import tracing
    import workloads

    tr = tracing.Tracer()
    wl, _ = setup(args.workload, args.seed, args.scale, work / "setup0", tr)
    cli = args.workload != "engine_mix"
    env = workloads.cli_env()
    probes = []  # one start-up probe beside each command, so both see the same host
    gc.freeze()
    replay_ops = wl.replay_ops()
    walls = {}
    errors = []
    spent = {True: 0.0, False: 0.0}
    op_id = cycles = attempted = 0
    t0 = perf_counter()
    while True:
        for op, rop in zip(wl.ops, replay_ops):
            op_id += 1
            attempted += 1
            errs = []
            if cli:
                probes.append(startup_probe(env))
                dt, _, err = attempt(op, op.run)
                walls[op_id] = dt * 1000
                errs.append(err)
            # alternate which replay goes first, so neither gets a warmer cache
            for traced in ((False, True) if cycles % 2 == 0 else (True, False)):
                if traced:
                    tr.op = op_id
                    # the root span covers the replay only, not its check,
                    # so cli.unattributed_ms is not credited with the check
                    dt, _, err = attempt(rop, lambda: root_span(tr, op.kind, rop))
                    tr.op = None
                else:
                    dt, _, err = attempt(rop, lambda: rop.replay(tracing.NULL))
                spent[traced] += dt
                errs.append(err)
            err = next((e for e in errs if e), None)
            if err:
                errors.append(err)
        cycles += 1
        if perf_counter() - t0 >= args.seconds:
            break

    extra = {
        "startup_ms": statistics.median(probes) if probes else 0.0,
        "cli_wall_ms": walls,
        "overhead_pct": (spent[True] / spent[False] - 1) * 100,
    }
    metrics = tracing.layer_metrics(tr.spans, cycles, extra)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tr.write(path)
    info = {"cycles": cycles, "spans": len(tr.spans),
            "trace_file": str(path.relative_to(ROOT))}
    return wl, metrics, attempted, errors, info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "arrac" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout with src/arrac and BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        wl, metrics, attempted, errors, extra = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it holds leftovers

    if errors:
        print(f"error: {len(errors)} of {attempted} operations failed; first: {errors[0]}",
              file=sys.stderr)
    result = {}
    for m in listed:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"error: {m['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": dict(
            wl.inputs.provenance(),
            python=sys.version,
            cpu_count=os.cpu_count(),
            platform=platform.platform(),
        ),
        "attempted": attempted,
        "failed": len(errors),
        "first_failure": errors[0] if errors else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    line = json.dumps({"record": record})
    print(line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
