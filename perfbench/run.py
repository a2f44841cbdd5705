#!/usr/bin/env python3
"""Simulator-speed benchmark: build the driver, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload graph-dl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The first call configures and compiles the simulator and the driver
from source into .bench_build/perfbench (CMake, RelWithDebInfo); later
calls rebuild only what changed. Build output goes to stderr. The
driver's report goes to stdout, and its last line is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics; --trace 1 is the separate
traced run that reports the per-layer metrics and prints its span
summary. --workload all runs every workload in turn and ends with one
combined JSON line whose metric names are prefixed with "<workload>/".

When the driver dies (a simulator panic or fatal aborts it) or hangs
past the time limit, the result still accounts for it: attempted is
the number of cells the driver started (it announces each one on
stderr), failed counts the cells it reported failed plus the one that
was running, correct is false and metrics is empty.

Exits non-zero, printing no result, when the build fails or the
driver's output is malformed.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
WORKLOADS = ["graph-dl", "graph-host", "kv-serve", "dll-ber"]
RUN_TIMEOUT_S = 170
CELL_STARTED = re.compile(r"^cell \d+ \S+$", re.M)
CELL_FAILED = re.compile(r"^cell \d+ \S+ FAILED:", re.M)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout.
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd)
        step(["cmake", "--build", str(BUILD), "-j", jobs])
    exe = BUILD / "simspeed"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def step(cmd):
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"command failed ({res.returncode}): {' '.join(cmd)}")


def text(stream):
    """Captured output as str (a timeout hands it over as bytes)."""
    if isinstance(stream, bytes):
        return stream.decode(errors="replace")
    return stream or ""


def run_one(exe, workload, args):
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        out, err, code = res.stdout, res.stderr, res.returncode
    except subprocess.TimeoutExpired as e:
        out, err, code = text(e.stdout), text(e.stderr), None
    sys.stderr.write(err)
    if code != 0:
        # The cell that was running when the driver died failed too.
        sys.stdout.write(out)
        why = (f"gave no result within {RUN_TIMEOUT_S} s" if code is None
               else f"exited with {code}")
        print(f"perfbench: {workload}: driver {why}", file=sys.stderr)
        return {"correct": False,
                "attempted": max(1, len(CELL_STARTED.findall(err))),
                "failed": len(CELL_FAILED.findall(err)) + 1,
                "metrics": {}}
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    print("\n".join(lines[:-1]), flush=True)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_one(exe, w, args) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
