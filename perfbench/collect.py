#!/usr/bin/env python3
"""Record a baseline: run every workload at several seeds and summarise.

    python3 perfbench/collect.py [--seeds 1-10] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed) for every workload of
BENCHMARK.json, with its run length, tracing off, one run after
another. For each end-to-end metric it prints the median of the runs
and their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
a third of the metric's bound. With --out it also writes the runs and
the host facts (nproc, load average before and after, CPU model, build
type) as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    facts = {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "cpu": cpu_model(),
        "build_type": "RelWithDebInfo",
        "run_seconds": bench["run_seconds"],
        "date": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
    }
    runs = {}
    seconds = str(bench["run_seconds"])
    for w in (w["name"] for w in bench["workloads"]):
        runs[w] = []
        for seed in args.seeds:
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(out.stdout.strip().split("\n")[-1])
            res["seed"] = seed
            res["elapsed_s"] = round(time.monotonic() - t0, 2)
            runs[w].append(res)
            vals = "  ".join(f"{k}={v['value']:.4f}"
                             for k, v in res["metrics"].items())
            print(f"{w:<10} seed {seed:>3}  {vals}  correct="
                  f"{res['correct']}  ({res['elapsed_s']} s)", flush=True)
    facts["loadavg_after"] = os.getloadavg()

    summary = {}
    print(f"\n{'workload':<10} {'metric':<12} {'median':>10} "
          f"{'spread':>8} {'bound/3':>8}")
    for w, rs in runs.items():
        summary[w] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            sp = spread(vals) if len(vals) > 1 else 0.0
            summary[w][name] = {"median": med, "spread": sp}
            print(f"{w:<10} {name:<12} {med:>10.4f} {sp:>8.4f} "
                  f"{bound / 3:>8.4f}"
                  f"{'' if name == 'setup_s' or sp < bound / 3 else '  !'}")
    print("host:", json.dumps(facts))
    if args.out:
        args.out.write_text(json.dumps(
            {"host": facts, "summary": summary, "runs": runs},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
