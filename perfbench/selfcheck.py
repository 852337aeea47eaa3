#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workload NAME|all] [--seed N]

Run from the repository root.  For each workload it runs the benchmark
twice untraced and twice traced with the same seed, and once with the
next seed.  It passes when every run is correct, the two runs of a pair
print identical virtual metrics and counts, and the other seed still
passes the correctness check.  Host timings are not compared.  Exit code
0 means every check passed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["bigimage", "manypods", "migrate"]

# Cost-model times, sizes and counts: a function of the seed alone.
VIRTUAL_END_TO_END = [
    "ckpt_downtime_ms", "ckpt_latency_ms", "restart_downtime_ms",
    "restart_latency_ms", "migrate_ms", "mttr_ms", "job_virtual_s",
    "image_mb",
]
VIRTUAL_LAYER_PREFIXES = ("phase.", "net.", "obs.")
VIRTUAL_LAYER = [
    "sim.events", "core.op_events", "core.retries", "core.deadline_expired",
    "ckpt.codec_saved_frac", "ckpt.image_bytes", "os.san_bytes",
    "os.san_objects", "super.detect_ms", "super.beacons",
    "super.recovery.attempts",
]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def virtual(result, trace):
    metrics = result["metrics"]
    if not trace:
        return {k: metrics[k]["value"] for k in VIRTUAL_END_TO_END}
    return {k: v["value"] for k, v in metrics.items()
            if k in VIRTUAL_LAYER or k.startswith(VIRTUAL_LAYER_PREFIXES)}


def check(workload, seed):
    problems = []
    for trace in (0, 1):
        a, b = run(workload, seed, trace), run(workload, seed, trace)
        for r in (a, b):
            if not r["correct"] or r["failed"]:
                problems.append(f"trace {trace}: run not correct: {r}")
        va, vb = virtual(a, trace), virtual(b, trace)
        if va != vb:
            diff = {k: (va.get(k), vb.get(k))
                    for k in va if va.get(k) != vb.get(k)}
            problems.append(
                f"trace {trace}: same seed, different values: {diff}")
        if not va:
            problems.append(f"trace {trace}: no virtual metrics found")
    other = run(workload, seed + 1, 0)
    if not other["correct"] or other["failed"]:
        problems.append(f"seed {seed + 1}: run not correct")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    failed = False
    for name in names:
        problems = check(name, args.seed)
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
