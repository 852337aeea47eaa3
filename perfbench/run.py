#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload bigimage|manypods|migrate \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
simulator libraries plus the driver (perfbench/CMakeLists.txt) into
.bench_build/; later calls only rebuild what changed.  The driver's
output is passed through: its last stdout line is the result JSON.  With
--trace 1 the driver's host spans are written to
.bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "zapc_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "zapc_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"driver exited with {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
