"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json at tiny length (--seconds 1): once
untraced and twice traced with the same seed.  It checks that
- every metric BENCHMARK.json names is printed with its unit,
- no operation failed (failed_ratio == 0),
- the exact counts (*.calls, *.vertices, *.faces_scanned, linkage.trace.*,
  linkage.obstructed) are identical in the two traced runs,
- and that run.py, copied into a directory without the package sources,
  exits non-zero without printing a result.
Exits 1 on the first failed check.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import EXACT_PREFIXES, EXACT_SUFFIXES  # noqa: E402


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def bench(workload, trace, script=os.path.join(HERE, "run.py")):
    r = subprocess.run([sys.executable, script, "--workload", workload,
                        "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                       capture_output=True, text=True, timeout=180)
    return r


def result_of(r, what):
    if r.returncode != 0:
        fail(f"{what}: exit {r.returncode}\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(out)}")
    if out["failed"] != 0 or out["correct"] is not True or out["attempted"] < 1:
        fail(f"{what}: failed_ratio {out['failed']}/{out['attempted']}\n{r.stdout}")
    exact = {}
    for line in lines[:-1]:
        name, eq, rest = line.partition(" = ")
        if eq and (name.endswith(EXACT_SUFFIXES) or name.startswith(EXACT_PREFIXES)):
            exact[name] = rest.split()[0]
    return out, exact


def check_metrics(out, wanted, what):
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            fail(f"{what}: metric {m['name']} missing or without unit {m['unit']}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{what}: metric {m['name']} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in (x["name"] for x in spec["workloads"]):
        out, _ = result_of(bench(w, 0), f"{w} untraced")
        check_metrics(out, spec["end_to_end"], f"{w} untraced")
        if any(m["value"] <= 0 for m in out["metrics"].values()):
            fail(f"{w}: an end-to-end metric is not positive: {out['metrics']}")
        runs = [result_of(bench(w, 1), f"{w} traced") for _ in range(2)]
        for out, _ in runs:
            check_metrics(out, spec["per_layer"], f"{w} traced")
        (_, a), (_, b) = runs
        if not a or a != b:
            diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            fail(f"{w}: exact counts differ between two traced runs: {diff}")
        print(f"ok   {w}: {len(a)} exact counts repeat")
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = bench(spec["workloads"][0]["name"], 0,
                  os.path.join(bare, "perfbench", "run.py"))
        if r.returncode == 0 or r.stdout.strip():
            fail("run.py without package sources did not fail cleanly")
    print("ok   without package sources: exit", r.returncode)


if __name__ == "__main__":
    main()
