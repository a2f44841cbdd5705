#!/usr/bin/env bash
# Tier-1 CI: plain build + full test suite, then an ASan+UBSan build of
# the same suite, then the event-kernel microbench as a smoke test.
# Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> tier-1 build (-Wall -Wextra -Werror)"
cmake -S "$root" -B "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$root/build" -j "$jobs"

echo "==> tier-1 tests"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "==> sanitizer build (ASan+UBSan)"
cmake -S "$root" -B "$root/build-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_SANITIZERS=ON
cmake --build "$root/build-asan" -j "$jobs"

echo "==> sanitizer tests"
# Leak checking needs ptrace, which most CI containers deny; the
# sanitizers' aborts on ASan/UBSan findings are what we are after.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs"

echo "==> event-kernel microbench (smoke)"
"$root/build/bench/micro_eventqueue" \
    --benchmark_min_time=0.05 --benchmark_format=json

echo "==> end-to-end run from the checked-in config"
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 -p system.dramScheduler=FCFS \
    --workload stream --scale 4 --rounds 1

echo "==> trace smoke: emitted Chrome-trace JSON is valid and complete"
# A traced run must produce Perfetto-openable JSON with spans from
# every acceptance layer (DRAM, NoC, DLL, NMP cores) plus a non-empty
# counter time series from the periodic sampler.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 \
    --workload bfs --scale 4 --rounds 1 \
    --trace-out "$trace_dir/trace.json" \
    --sample-interval-ps 1000000 \
    --sample-out "$trace_dir/samples.csv" > "$trace_dir/traced.out"
python3 - "$trace_dir/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "empty trace"
cats = {e.get("cat") for e in events}
for want in ("dram", "noc", "dll", "core"):
    assert want in cats, f"no '{want}' events (got {sorted(cats)})"
pids = {e["pid"] for e in events if "pid" in e}
assert pids, "no pids"
names = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert any(n.startswith("dimm") for n in names), names
EOF
sample_rows="$(tail -n +2 "$trace_dir/samples.csv" | wc -l)"
if [ "$sample_rows" -lt 1 ]; then
    echo "sampler emitted no rows"; exit 1
fi
echo "    trace OK: all layers present, $sample_rows sample rows"

echo "==> zero-perturbation guard: tracing off matches untraced output"
# The instrumented binary with obs.trace=off must print byte-identical
# stdout (config header, metrics, stats JSON) to a plain run.
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 \
    --workload bfs --scale 4 --rounds 1 --json \
    -p obs.trace=false > "$trace_dir/off.out"
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 \
    --workload bfs --scale 4 --rounds 1 --json > "$trace_dir/plain.out"
if ! cmp -s "$trace_dir/off.out" "$trace_dir/plain.out"; then
    echo "tracing-off run diverged from plain run"
    diff "$trace_dir/off.out" "$trace_dir/plain.out" | head
    exit 1
fi
echo "    guard OK: byte-identical stats output"

echo "==> DRAM standards matrix"
# Every registered memory-standard family must push the whole workload
# matrix to completion and verification (example_simulate exits
# nonzero when a kernel fails to verify), exercising each family's own
# constraint set: DDR5 sub-channels + write CRC, LPDDR5X groupless /
# windowless decode + REFpb, HBM2 pseudo-channels (docs/dram_timing.md).
# And the ddr4 family alias must be pure sugar: a run selected via
# -p dram.standard=ddr4 is byte-identical to one without it.
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 \
    --workload bfs --scale 5 --rounds 1 --json \
    > "$trace_dir/std-base.out"
"$root/build/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 -p dram.standard=ddr4 \
    --workload bfs --scale 5 --rounds 1 --json \
    > "$trace_dir/std-alias.out"
if ! cmp -s "$trace_dir/std-base.out" "$trace_dir/std-alias.out"; then
    echo "dram.standard=ddr4 perturbed the default run"
    diff "$trace_dir/std-base.out" "$trace_dir/std-alias.out" | head
    exit 1
fi
echo "    [alias] OK: dram.standard=ddr4 is byte-identical"
for std in ddr4 ddr5 lpddr5x hbm2; do
    for wl in bfs gups hotspot kmeans nw pagerank spmv sssp stream \
        tspow; do
        "$root/build/examples/example_simulate" \
            --config "$root/configs/default.json" \
            -p system.numDimms=4 -p system.numChannels=2 \
            -p host.numChannels=2 -p dram.standard="$std" \
            --workload "$wl" --scale 5 --rounds 1 > /dev/null
    done
    echo "    [$std] OK: 10-workload matrix completed and verified"
done

echo "==> serving smoke under ASan+UBSan"
# Short open-loop runs of both request-level workloads
# (docs/serving.md): the stats JSON must carry the serve group with a
# nonzero request count and the SLO percentiles, and the run must
# verify (example_simulate exits nonzero otherwise).
for wl in kv embed; do
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p system.numDimms=4 -p system.numChannels=2 \
        -p host.numChannels=2 \
        --workload "$wl" --requests 256 -p serve.keys=8192 --json \
        > "$trace_dir/serve-$wl.out"
    python3 - "$trace_dir/serve-$wl.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
stats = json.loads(text[text.index('{\n  "config"'):])
serve = stats["serve"]["scalars"]
assert serve["requests"] > 0, "no requests retired"
for k in ("latencyP50Ps", "latencyP95Ps", "latencyP99Ps"):
    assert serve[k] > 0, f"missing/zero {k}"
assert serve["latencyP50Ps"] <= serve["latencyP95Ps"] \
       <= serve["latencyP99Ps"], "percentiles not monotone"
hist = stats["serve"]["histograms"]["latencyPs"]
assert hist["total"] == serve["requests"], "histogram count mismatch"
EOF
    echo "    [$wl] OK: served, percentiles present"
done

echo "==> fault-injection soak under ASan+UBSan"
# A nonzero BER at a fixed seed drives the whole DLL retry path
# (corruption, NACK, timeout retransmission, dedup) under the
# sanitizers; bfs keeps traffic on the bridge where faults land.
soak_out="$(ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    --config "$root/configs/default.json" \
    -p system.numDimms=4 -p system.numChannels=2 \
    -p host.numChannels=2 \
    -p faults.model=ber -p faults.ber=2e-5 -p faults.seed=7 \
    --workload bfs --scale 6 --rounds 2 --json)"
if ! grep -q '"dllCorrupt": [1-9]' <<<"$soak_out"; then
    echo "soak injected no corruption"; exit 1
fi
if ! grep -q '"dllRetries": [1-9]' <<<"$soak_out"; then
    echo "soak triggered no retries"; exit 1
fi
if grep -q '"dllFailedTransfers": [1-9]' <<<"$soak_out"; then
    echo "soak lost transfers permanently"; exit 1
fi
echo "    soak OK: corruption injected, retries recovered, no losses"

echo "==> link-failure chaos matrix under ASan+UBSan"
# Fault model x topology x recovery policy. The stuck cells hold one
# direction of the 1<->2 bridge link down for the whole run — past the
# retry budget; the ber cells inject corruption the budget must absorb
# without a single exhaustion. Every cell must complete and verify
# (example_simulate exits nonzero otherwise) and recover through the
# configured path: failover re-sends through the host forwarder, drop
# completes on the warn-and-discard path. The hang watchdog rides
# along armed in every cell.
for model in stuck ber; do
    for topo in HalfRing Ring; do
        for policy in failover drop; do
            case "$model" in
            stuck) fault_args=(-p faults.model=stuck \
                -p faults.stuckAtPs=0 \
                -p faults.stuckForPs=400000000000000 \
                -p faults.stuckPeriodPs=0 \
                -p faults.linkFilter=link1to2) ;;
            ber) fault_args=(-p faults.model=ber \
                -p faults.ber=2e-5) ;;
            esac
            chaos_out="$(ASAN_OPTIONS=detect_leaks=0 \
                UBSAN_OPTIONS=print_stacktrace=1 \
                "$root/build-asan/examples/example_simulate" \
                --config "$root/configs/default.json" \
                -p system.numDimms=4 -p system.numChannels=2 \
                -p host.numChannels=2 -p link.topology="$topo" \
                "${fault_args[@]}" -p faults.seed=7 \
                -p faults.onExhausted="$policy" \
                -p watchdog.stallPs=1000000000 \
                --workload bfs --scale 6 --rounds 1 --json 2>&1)"
            cell="$model/$topo/$policy"
            if [ "$model" = ber ]; then
                # The retry budget absorbs this BER: recovery, but no
                # exhaustions and no health transitions.
                if ! grep -q '"dllRetries": [1-9]' <<<"$chaos_out"; then
                    echo "[$cell] no retries recorded"; exit 1
                fi
                if grep -q '"dllFailedTransfers": [1-9]' \
                    <<<"$chaos_out"; then
                    echo "[$cell] transfers exhausted at soak BER"
                    exit 1
                fi
                echo "    [$cell] OK: completed, retries absorbed"
                continue
            fi
            if ! grep -q '"linkDownEvents": [1-9]' <<<"$chaos_out"; then
                echo "[$cell] dead link never detected"; exit 1
            fi
            case "$policy" in
            failover)
                if ! grep -q '"dllFailovers": [1-9]' \
                    <<<"$chaos_out"; then
                    echo "[$cell] no failovers recorded"; exit 1
                fi
                ;;
            drop)
                if ! grep -q '"dllFailedTransfers": [1-9]' \
                    <<<"$chaos_out"; then
                    echo "[$cell] no exhaustions recorded"; exit 1
                fi
                ;;
            esac
            echo "    [$cell] OK: completed, verified, recovered"
        done
    done
done
# The 8D (two-group) stuck-bridge cell, re-enabled: PR 6 skipped it
# because a permanently-stuck bridge hung the proxy-notify path on
# multi-group systems; the requestForward retry-deadline fallback
# fixed that, so the cell now runs under the sanitizers like the rest
# of the matrix. No shape overrides: the default config is the 8-DIMM
# two-group machine.
for policy in failover drop; do
    chaos_out="$(ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p faults.model=stuck -p faults.stuckAtPs=0 \
        -p faults.stuckForPs=400000000000000 \
        -p faults.stuckPeriodPs=0 -p faults.linkFilter=link1to2 \
        -p faults.seed=7 -p faults.onExhausted="$policy" \
        -p watchdog.stallPs=1000000000 \
        --workload bfs --scale 6 --rounds 1 --json 2>&1)"
    cell="stuck-8D/HalfRing/$policy"
    if ! grep -q '"linkDownEvents": [1-9]' <<<"$chaos_out"; then
        echo "[$cell] dead bridge never detected"; exit 1
    fi
    echo "    [$cell] OK: completed, verified, recovered"
done

echo "==> finite-outage recovery under ASan+UBSan"
# The link dies at tick 0 and comes back mid-run: the HalfRing cut
# drops in-flight packets outright, the exhaustion policy retires
# their sequences, and the post-recovery DLL stream must resume past
# the gap instead of jamming the reorder buffer (the watchdog rides
# along armed to catch exactly that).
for policy in failover drop; do
    outage_out="$(ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        "$root/build-asan/examples/example_simulate" \
        --config "$root/configs/default.json" \
        -p system.numDimms=4 -p system.numChannels=2 \
        -p host.numChannels=2 -p link.topology=HalfRing \
        -p faults.model=stuck -p faults.stuckAtPs=0 \
        -p faults.stuckForPs=25000000 -p faults.stuckPeriodPs=0 \
        -p faults.linkFilter=link1to2 -p faults.seed=17 \
        -p faults.reprobeIntervalPs=5000000 \
        -p faults.onExhausted="$policy" \
        -p watchdog.stallPs=1000000000 \
        --workload bfs --scale 6 --rounds 1 --json 2>&1)"
    cell="finite-outage/$policy"
    if ! grep -q '"linkDownEvents": [1-9]' <<<"$outage_out"; then
        echo "[$cell] outage never masked the edge"; exit 1
    fi
    if ! grep -q '"linkRecoveredEvents": [1-9]' <<<"$outage_out"; then
        echo "[$cell] link never recovered mid-run"; exit 1
    fi
    if ! grep -q '"dllStreamResyncs": [1-9]' <<<"$outage_out"; then
        echo "[$cell] no stream resyncs recorded"; exit 1
    fi
    echo "    [$cell] OK: went down, recovered, stream resumed"
done

echo "==> rack-scale pooling smoke under ASan+UBSan"
# The checked-in two-host rack (configs/rack_2host.json, docs/rack.md)
# serves kv across the pooled NMP-DIMMs: the stats JSON must carry the
# rack group with cross-host traffic on the pooled bridges and the
# serve group with per-host SLO percentiles that partition the
# rack-wide request count.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    --config "$root/configs/rack_2host.json" \
    --workload kv --json > "$trace_dir/rack.out"
python3 - "$trace_dir/rack.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
stats = json.loads(text[text.index('{\n  "config"'):])
rack = stats["rack"]["scalars"]
assert rack["pooledTransfers"] > 0, "no pooled cross-host transfers"
assert rack["pooledBytes"] > 0, "no pooled cross-host bytes"
# Zero-valued scalars are omitted from the example driver's JSON, so
# a pooled-primary run simply has no "crossings" entry.
assert rack.get("crossings", 0) == 0, "pooled primary used host path"
serve = stats["serve"]["scalars"]
assert serve["requests"] > 0, "no requests retired"
hosts = serve["host0.requests"] + serve["host1.requests"]
assert hosts == serve["requests"], "per-host counts do not partition"
for h in (0, 1):
    p50 = serve[f"host{h}.latencyP50Ps"]
    p99 = serve[f"host{h}.latencyP99Ps"]
    assert 0 < p50 <= p99, f"host{h} percentiles missing/non-monotone"
EOF
echo "    rack OK: pooled crossings, per-host SLO partition"

echo "==> chaos serving smoke under ASan+UBSan"
# The two-host rack on the forwarded route through a mid-run host
# outage with the reliability layer armed (docs/serving.md,
# "Reliability & graceful degradation"): the outage must actually
# bite (misses/sheds), the tail must stay bounded by the deadline,
# and every request must be disposed of exactly once.
chaos_args=(
    --config "$root/configs/rack_2host.json"
    -p rack.idcMode=forwarded
    -p rack.hostDownId=1 -p rack.hostDownAtPs=500000000
    -p rack.hostDownForPs=60000000
    -p link.retryTimeoutPs=40000000
    --deadline-us 25 --max-retries 3
    -p serve.backoffUs=5 -p serve.maxInflight=128
    --workload kv --json
)
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    "$root/build-asan/examples/example_simulate" \
    "${chaos_args[@]}" > "$trace_dir/chaos.out"
python3 - "$trace_dir/chaos.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
stats = json.loads(text[text.index('{\n  "config"'):])
serve = stats["serve"]["scalars"]
g = lambda k: serve.get(k, 0)
dropped = (g("deadlineMisses") + g("shedRequests")
           + g("failedRequests"))
assert dropped > 0, "outage never cost a request"
assert g("requests") + dropped == 4096, "dispositions do not partition"
assert g("latencyP99Ps") <= 25e6, \
    f'p99 {g("latencyP99Ps")} ps blew the 25 us deadline'
assert g("goodputQps") > 0, "no goodput reported"
rack = stats["rack"]["scalars"]
assert rack.get("parkedTransfers", 0) > 0, \
    "no transfer parked on the dead edge"
EOF
echo "    chaos OK: outage bitten, tail bounded, partition holds"

echo "==> run record replays from its own config header"
# The stats JSON's config section holds every key that can change a
# result (only the result-neutral obs.* keys are left out): rerunning
# from that section alone must reproduce the stats byte for byte.
"$root/build/examples/example_simulate" \
    --config "$root/configs/rack_2host.json" -p serve.requests=512 \
    --workload kv --json > "$trace_dir/record.out"
python3 - "$trace_dir/record.out" "$trace_dir/record.json" <<'EOF'
import sys
text = open(sys.argv[1]).read()
begin = text.index('{', text.index('\n  "config": '))
open(sys.argv[2], "w").write(text[begin:text.index('}', begin) + 1])
EOF
"$root/build/examples/example_simulate" \
    --config "$trace_dir/record.json" \
    --workload kv --json > "$trace_dir/replay.out"
for run in record replay; do
    sed -n '/^{$/,$p' "$trace_dir/$run.out" > "$trace_dir/$run.stats"
done
if [ ! -s "$trace_dir/record.stats" ] || \
    ! cmp -s "$trace_dir/record.stats" "$trace_dir/replay.stats"; then
    echo "replay from the emitted config header diverged"
    diff "$trace_dir/record.stats" "$trace_dir/replay.stats" | cut -c1-160 | head
    exit 1
fi
echo "    replay OK: byte-identical stats JSON from the header alone"

echo "==> CI green"
