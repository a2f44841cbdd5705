#!/usr/bin/env python3
"""Self-test of the simulator-speed benchmark.

    python3 perfbench/selftest.py

1. Seed coverage: every workload runs once at HELD_OUT_SEED, which
   the recorded baseline (baseline.json, seeds 1-10) never used, and
   every cell must verify.
2. Deterministic proxies: every workload's traced run is made twice at
   SEED. The exact counts that later changes may be gated on
   (sim.events, dram.requests, noc.flits, proto.dll_sent,
   sim.allocs_per_event) and the stats digest must repeat exactly.

Exits 0 when both hold, 1 otherwise. Takes about two minutes on a
4-CPU host.
"""

import json
import re
import subprocess
import sys

from run import WORKLOADS, build

HELD_OUT_SEED = 7919
SEED = 1
PROXIES = ["sim.events", "dram.requests", "noc.flits", "proto.dll_sent",
           "sim.allocs_per_event"]
DIGEST = re.compile(r"^stats digest .*: ([0-9a-f]{16})$", re.M)


def simulate(exe, workload, seed, trace, passes):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--min-passes", str(passes),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=170, check=True).stdout
    return json.loads(out.strip().split("\n")[-1]), DIGEST.search(out)[1]


def main():
    exe = build()
    ok = True

    for w in WORKLOADS:
        res, _ = simulate(exe, w, HELD_OUT_SEED, 0, 1)
        good = res["correct"] and res["failed"] == 0
        ok &= good
        print(f"seed coverage  {w:<10} seed {HELD_OUT_SEED}: "
              f"{res['attempted'] - res['failed']}/{res['attempted']} "
              f"cells verified  {'ok' if good else 'FAIL'}")

    for w in WORKLOADS:
        runs = [simulate(exe, w, SEED, 1, 2) for _ in range(2)]
        (a, da), (b, db) = runs
        diffs = [k for k in PROXIES
                 if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if da != db:
            diffs.append("stats digest")
        good = not diffs and a["correct"] and b["correct"]
        ok &= good
        shown = "  ".join(f"{k}={a['metrics'][k]['value']:.6g}"
                          for k in PROXIES)
        print(f"determinism    {w:<10} seed {SEED}: {shown}  "
              f"digest {da}  "
              f"{'ok' if good else 'FAIL: ' + ', '.join(diffs)}")

    print("self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
