"""Tiny-size smoke test of the benchmark; needs only the standard library.

    python3 bench/smoke.py

Runs every workload once at ``--scale tiny``, timed and traced, and fails
(exit 1, naming the problem) unless:

* each result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with every metric BENCHMARK.json names for the
  mode, in its unit, and nothing failed;
* the full record carries the per-operation metrics that apply to the
  workload, with ``fail_ratio`` 0;
* the traced run wrote spans with parent links and operation ids;
* ``bench/compare.py`` reads the records;
* a directory holding only BENCHMARK.json and bench/ makes run.py exit
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work" / "smoke"

APPLIES = {
    "cli_query": ["query_p50_ms", "cross_p50_ms"],
    "cli_partition": ["load_p50_ms", "vpartition_p50_ms", "vreassemble_p50_ms",
                      "hpartition_p50_ms", "hreassemble_p50_ms", "write_amplification"],
    "engine_mix": ["query_p50_ms", "cross_p50_ms", "vpartition_p50_ms", "vreassemble_p50_ms",
                   "hpartition_p50_ms", "hreassemble_p50_ms", "push_select_p50_ms"],
}


def fail(message):
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run(cwd, workload, trace, record=None):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if record:
        cmd += ["--record", str(record)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, listed, what):
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: {result['failed']} of {result['attempted']} failed\n{proc.stderr}")
    metrics = result["metrics"]
    for m in listed:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            fail(f"{what}: metric {m['name']} missing or not in {m['unit']}: {got}")
    if set(metrics) != {m["name"] for m in listed}:
        fail(f"{what}: unexpected metrics {sorted(set(metrics) - {m['name'] for m in listed})}")
    return json.loads(lines[-2])["record"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    records = WORK / "records.jsonl"
    try:
        for w in spec["workloads"]:
            name = w["name"]
            rec = check_result(run(ROOT, name, 0, records), spec["end_to_end"], name)
            for key in APPLIES[name] + ["fail_ratio"]:
                if key not in rec["metrics"]:
                    fail(f"{name}: record lacks {key}")
            if rec["metrics"]["fail_ratio"]["value"] != 0:
                fail(f"{name}: fail_ratio {rec['metrics']['fail_ratio']['value']}")
            rec = check_result(run(ROOT, name, 1), spec["per_layer"], f"{name} traced")
            spans = [json.loads(line) for line in
                     (ROOT / rec["trace_file"]).read_text(encoding="utf-8").splitlines()]
            linked = [s for s in spans if s["parent"] is not None and s["op"] is not None]
            if not linked or any(spans[s["parent"]]["op"] != s["op"] for s in linked):
                fail(f"{name}: spans lack consistent parent links")
            print(f"smoke: {name}: ok ({len(spans)} spans)")

        proc = subprocess.run([sys.executable, str(BENCH / "compare.py"), str(records),
                               str(records)], capture_output=True, text=True)
        if proc.returncode != 0 or "within bound" not in proc.stdout:
            fail(f"compare.py: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")

        bare = WORK / "bare"
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("run.py without src/ should exit non-zero and print no result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
