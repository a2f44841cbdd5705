/**
 * @file
 * Simulator-speed benchmark driver. Simulates one workload's cell
 * list (README.md) pass after pass on the classic event kernel,
 * single-threaded and closed loop, and reports host-side metrics.
 *
 *   simspeed --workload NAME --seed N --seconds S --trace 0|1
 *            [--min-passes N]
 *
 * One untimed warm-up pass comes first. Timed passes then repeat
 * until S seconds have gone and at least --min-passes (default 3) are
 * done. Every cell builds a fresh System, so the modelled caches start
 * empty in every cell.
 *
 * --trace 0 reports the end-to-end metrics (wall_s, setup_s,
 * peak_rss_mb). --trace 1 is the separate traced run: it alternates
 * untraced and span-recording passes, runs the isolated layer drivers
 * and reports the per-layer metrics plus the tracing overhead. Spans
 * stay in memory; their per-name totals and self times are printed.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed and metrics. A cell fails when it does not verify or its run
 * throws; the run is incorrect when a cell fails or when a pass's
 * stats digest or exact counts differ from the warm-up pass. Before
 * each cell a "cell N KERNEL" line goes to stderr, flushed, so a cell
 * whose run kills the process (panic, fatal) is still counted by the
 * caller (run.py).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "host_probe.hh"
#include "common/stats_json.hh"
#include "layer_drivers.hh"
#include "spans.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload_specs.hh"

using namespace dimmlink;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Registry counters summed over every group matching a pattern. */
struct Probe
{
    const char *key;
    const char *groupPattern;
    const char *stat;
};

const Probe probes[] = {
    {"dram.reads", R"(dimm\d+\.mc\.rank\d+)", "reads"},
    {"dram.writes", R"(dimm\d+\.mc\.rank\d+)", "writes"},
    {"dram.activates", R"(dimm\d+\.mc\.rank\d+)", "activates"},
    {"noc.flits", R"(fabric\.\w+\.group\d+\.link\d+to\d+)", "flits"},
    {"noc.router_forwards", R"(fabric\.\w+\.group\d+\.router\d+)",
     "forwarded"},
    {"noc.credit_blocks", R"(fabric\.\w+\.group\d+\.router\d+)",
     "blockedOnCredits"},
    {"fault.corrupted", R"(fabric\.\w+\.group\d+\.link\d+to\d+)",
     "faultCorrupted"},
    {"idc.transactions", R"(fabric\.\w+)", "transactions"},
    {"idc.link_bytes", R"(fabric\.\w+)", "bytesViaLink"},
    {"idc.host_bytes", R"(fabric\.\w+)", "bytesViaHost"},
    {"proto.dll_sent", R"(fabric\.\w+\.dllc\d+)", "dllSent"},
    {"proto.dll_retries", R"(fabric\.\w+\.dllc\d+)", "dllRetries"},
    {"dimm.mem_refs", R"(dimm\d+\.core\d+)", "memRefs"},
    {"dimm.remote_refs", R"(dimm\d+\.core\d+)", "remoteRefs"},
    {"dimm.l1_hits", R"(dimm\d+\.core\d+\.l1)", "hits"},
    {"dimm.l1_misses", R"(dimm\d+\.core\d+\.l1)", "misses"},
    {"dimm.l2_hits", R"(dimm\d+\.l2)", "hits"},
    {"dimm.l2_misses", R"(dimm\d+\.l2)", "misses"},
    {"host.polls", R"(host\.polling)", "polls"},
    {"host.idle_polls", R"(host\.polling)", "idlePolls"},
    {"host.channel_transfers", R"(host\.channel\d+)", "transfers"},
    {"sync.messages", R"(sync)", "messages"},
    {"sync.episodes", R"(sync)", "episodes"},
};

using Counts = std::map<std::string, double>;

void
collectCounts(const stats::Registry &reg, Counts &out)
{
    static const std::vector<std::regex> patterns = [] {
        std::vector<std::regex> v;
        for (const Probe &p : probes)
            v.emplace_back(p.groupPattern);
        return v;
    }();
    for (std::size_t i = 0; i < std::size(probes); ++i) {
        double sum = 0;
        reg.forEachGroup([&](const stats::Group &g) {
            if (!std::regex_match(g.name(), patterns[i]))
                return;
            const auto it = g.scalars().find(probes[i].stat);
            if (it != g.scalars().end())
                sum += it->second.value();
        });
        out[probes[i].key] += sum;
    }
}

/** FNV-1a, 64 bit: a stable digest of the stats JSON bytes. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct CellResult
{
    std::string kernel;
    bool ok = false;
    /** Raw host seconds. */
    double buildS = 0, makeS = 0, runS = 0, jsonS = 0;
    /** Host-speed scale: HostProbe::refNs over the mean of the probes
     * just before and after the cell. */
    double scale = 1;
};

/** One pass over the workload's cells. Counts and the digest are
 * exact; sum() scales each cell's host time to the reference host
 * speed. */
struct PassResult
{
    std::vector<CellResult> cells;
    Counts counts;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    /** Probe duration after each cell, ns. */
    std::vector<double> probeNs;

    double
    sum(double CellResult::*field) const
    {
        double s = 0;
        for (const CellResult &c : cells)
            s += c.*field * c.scale;
        return s;
    }
    double wallS() const { return sum(&CellResult::runS); }
    double
    rawWallS() const
    {
        double s = 0;
        for (const CellResult &c : cells)
            s += c.runS;
        return s;
    }
    double setupS() const
    {
        return sum(&CellResult::buildS) + sum(&CellResult::makeS);
    }
    unsigned
    failures() const
    {
        unsigned n = 0;
        for (const CellResult &c : cells)
            n += !c.ok;
        return n;
    }
};

/** Simulate one cell: build, make, run, dump, all under spans that
 * share the cell's id. */
CellResult
runCell(const WorkloadSpec &spec, const std::string &kernel,
        SpanRecorder &rec, std::uint64_t id, PassResult &pass)
{
    CellResult c;
    c.kernel = kernel;
    std::fprintf(stderr, "cell %" PRIu64 " %s\n", id, kernel.c_str());
    std::fflush(stderr);
    const SpanRecorder::Scope cell(&rec, "cell." + kernel, id);
    try {
        std::unique_ptr<System> sys;
        {
            const SpanRecorder::Scope s(&rec, "system.build", id,
                                        cell.index());
            const auto t0 = Clock::now();
            sys = std::make_unique<System>(spec.cfg);
            c.buildS = secondsSince(t0);
        }
        std::unique_ptr<workloads::Workload> wl;
        {
            const SpanRecorder::Scope s(&rec, "workloads.make", id,
                                        cell.index());
            const auto t0 = Clock::now();
            wl = workloads::makeWorkload(kernel, spec.params,
                                         sys->addressMap());
            c.makeS = secondsSince(t0);
        }
        RunResult r;
        {
            const SpanRecorder::Scope s(&rec, "system.run", id,
                                        cell.index());
            Runner runner(*sys, *wl);
            const std::uint64_t events0 = sys->queue().executed();
            const std::uint64_t allocs0 = allocCount();
            const auto t0 = Clock::now();
            r = runner.run();
            c.runS = secondsSince(t0);
            pass.counts["sim.allocs"] +=
                static_cast<double>(allocCount() - allocs0);
            pass.counts["sim.events"] +=
                static_cast<double>(sys->queue().executed() - events0);
        }
        {
            const SpanRecorder::Scope s(&rec, "common.stats_json", id,
                                        cell.index());
            const auto t0 = Clock::now();
            std::ostringstream os;
            stats::dumpJson(sys->stats(), os, false, &sys->config());
            c.jsonS = secondsSince(t0);
            pass.digest = fnv1a(pass.digest, os.str());
        }
        collectCounts(sys->stats(), pass.counts);
        pass.counts["workloads.instructions"] +=
            static_cast<double>(r.instructions);
        pass.counts["system.sim_ns"] +=
            static_cast<double>(r.kernelTicks) / tickPerNs;
        c.ok = r.verified;
        if (!c.ok)
            std::fprintf(stderr, "cell %" PRIu64 " %s FAILED: did not "
                         "verify\n", id, kernel.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cell %" PRIu64 " %s FAILED: %s\n", id,
                     kernel.c_str(), e.what());
        c.ok = false;
    }
    return c;
}

PassResult
runPass(const WorkloadSpec &spec, SpanRecorder &rec, std::uint64_t &id,
        HostProbe &probe)
{
    PassResult pass;
    for (const std::string &k : spec.kernels) {
        const double before = probe.last();
        CellResult c = runCell(spec, k, rec, id++, pass);
        pass.probeNs.push_back(probe.measure());
        c.scale = HostProbe::refNs / ((before + probe.last()) / 2);
        pass.cells.push_back(std::move(c));
    }
    return pass;
}

double
medianOf(const std::vector<PassResult> &passes,
         double (PassResult::*fn)() const)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back((p.*fn)());
    return median(v);
}

double
medianProbeMs(const std::vector<PassResult> &passes)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.insert(v.end(), p.probeNs.begin(), p.probeNs.end());
    return median(v) / 1e6;
}

double
medianOf(const std::vector<PassResult> &passes,
         double CellResult::*field)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(p.sum(field));
    return median(v);
}

/** A summed count; 0 when no cell got far enough to record it. */
double
count(const Counts &c, const char *key)
{
    const auto it = c.find(key);
    return it == c.end() ? 0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetric(const Metric &m)
{
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void
printJson(bool correct, unsigned attempted, unsigned failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** Per-span-name totals over the whole run, with self times. */
void
printSpanSummary(const SpanRecorder &rec)
{
    struct Row
    {
        unsigned count = 0;
        double totalNs = 0, selfNs = 0;
    };
    std::map<std::string, Row> rows;
    const std::vector<double> self = rec.selfNs();
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
        Row &r = rows[rec.spans()[i].name];
        ++r.count;
        r.totalNs += rec.spans()[i].durNs();
        r.selfNs += self[i];
    }
    std::printf("spans (traced passes and layer drivers):\n");
    std::printf("  %-22s %6s %14s %14s\n", "name", "count", "total_ms",
                "self_ms");
    for (const auto &[name, r] : rows)
        std::printf("  %-22s %6u %14.3f %14.3f\n", name.c_str(),
                    r.count, r.totalNs / 1e6, r.selfNs / 1e6);
}

/**
 * The highest wall_s percentile with at least ten passes beyond it;
 * below 20 passes there is none, and the medians stand alone.
 */
void
printTail(const std::vector<PassResult> &passes)
{
    const std::size_t n = passes.size();
    if (n < 20) {
        std::printf("  (wall_s and setup_s are medians of %zu passes; "
                    "no tail percentile below 20 passes)\n", n);
        return;
    }
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(p.wallS());
    std::sort(v.begin(), v.end());
    const std::size_t idx = n - 11; // ten samples lie above it
    std::printf("  (medians of %zu passes) wall_s p%.0f %18.6f s\n", n,
                100.0 * static_cast<double>(idx + 1) /
                    static_cast<double>(n),
                v[idx]);
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: simspeed --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--min-passes N]\n",
                 msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned minPasses = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::stoull(v);
        else if (a == "--seconds")
            seconds = std::stod(v);
        else if (a == "--trace" && (v == "0" || v == "1"))
            trace = v == "1";
        else if (a == "--min-passes")
            minPasses = static_cast<unsigned>(std::stoul(v));
        else
            usage("unknown option " + a);
    }
    const std::optional<WorkloadSpec> spec = makeSpec(workload, seed);
    if (!spec) {
        std::string known;
        for (const std::string &n : workloadNames())
            known += " " + n;
        usage("unknown workload '" + workload + "' (known:" + known +
              ")");
    }
    if (minPasses == 0)
        minPasses = 1;

    std::printf("workload %s  seed %" PRIu64 "  %uD-%uC over %s  "
                "cells:",
                spec->name.c_str(), seed, spec->cfg.numDimms,
                spec->cfg.numChannels, toString(spec->cfg.idcMethod));
    for (const std::string &k : spec->kernels)
        std::printf(" %s", k.c_str());
    std::printf("\n");

    SpanRecorder rec;
    std::uint64_t nextId = 1;
    unsigned attempted = 0, failed = 0;
    bool stable = true;

    HostProbe probe;
    probe.measure();
    const PassResult warm = runPass(*spec, rec, nextId, probe);
    std::vector<PassResult> untraced, traced;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    // The traced run interleaves untraced and traced passes so both
    // medians see the same host conditions.
    const unsigned minEach =
        trace ? std::max(1u, (minPasses + 1) / 2) : minPasses;
    while (untraced.size() < minEach ||
           (trace && traced.size() < minEach) ||
           Clock::now() < deadline) {
        const bool traceThis = trace && traced.size() < untraced.size();
        rec.setEnabled(traceThis);
        (traceThis ? traced : untraced)
            .push_back(runPass(*spec, rec, nextId, probe));
    }
    rec.setEnabled(false);

    const PassResult &ref = untraced.front();
    attempted += static_cast<unsigned>(warm.cells.size());
    failed += warm.failures();
    for (const auto *set : {&untraced, &traced}) {
        for (const PassResult &p : *set) {
            attempted += static_cast<unsigned>(p.cells.size());
            failed += p.failures();
            // Simulated results are deterministic: every pass must
            // reproduce the warm-up's stats byte for byte, and the
            // timed passes must allocate exactly alike.
            Counts a = p.counts, b = warm.counts;
            a.erase("sim.allocs");
            b.erase("sim.allocs");
            if (p.digest != warm.digest || a != b ||
                count(p.counts, "sim.allocs") !=
                    count(ref.counts, "sim.allocs"))
                stable = false;
        }
    }
    if (!stable)
        std::fprintf(stderr, "passes disagree: stats digest or exact "
                             "counts changed between passes\n");

    auto n = [&ref](const char *key) { return count(ref.counts, key); };
    const double wall = medianOf(untraced, &PassResult::wallS);
    const double dramRequests = n("dram.reads") + n("dram.writes");
    // A request served without opening a row hit the open row.
    const double rowHitRatio =
        std::max(0.0, 1 - ratio(n("dram.activates"), dramRequests));
    const double l1HitRatio =
        ratio(n("dimm.l1_hits"),
              n("dimm.l1_hits") + n("dimm.l1_misses"));
    std::vector<Metric> e2e = {
        {"wall_s", wall, "s"},
        {"setup_s", medianOf(untraced, &PassResult::setupS), "s"},
        {"peak_rss_mb", probe.peakRssMb(), "MB"},
    };
    std::printf("passes: %zu timed untraced, %zu traced, 1 warm-up\n",
                untraced.size(), traced.size());
    std::printf("stats digest (fnv1a-64 over every cell's stats JSON, "
                "config header included): %016" PRIx64 "\n",
                warm.digest);
    std::printf("end-to-end (host time, tracing off):\n");
    for (const Metric &m : e2e)
        printMetric(m);
    printTail(untraced);
    std::printf("  wall_s by pass:");
    for (const PassResult &p : untraced)
        std::printf(" %.4f", p.wallS());
    std::printf("\n  raw host wall_s by pass:");
    for (const PassResult &p : untraced)
        std::printf(" %.4f", p.rawWallS());
    std::printf("\n");

    std::vector<Metric> layer = {
        {"sim.events", n("sim.events"), "count"},
        {"sim.events_per_s", ratio(n("sim.events"), wall), "1/s"},
        {"sim.allocs_per_event",
         ratio(n("sim.allocs"), n("sim.events")), "count"},
        {"system.sim_ns_per_wall_s", ratio(n("system.sim_ns"), wall),
         "ns/s"},
        {"workloads.instructions", n("workloads.instructions"),
         "count"},
        {"dram.requests", dramRequests, "count"},
        {"dram.row_hit_ratio", rowHitRatio, "ratio"},
        {"noc.flits", n("noc.flits"), "count"},
        {"noc.router_forwards", n("noc.router_forwards"), "count"},
        {"noc.credit_block_ratio",
         ratio(n("noc.credit_blocks"),
               n("noc.credit_blocks") + n("noc.router_forwards")),
         "ratio"},
        {"idc.transactions", n("idc.transactions"), "count"},
        {"idc.link_bytes", n("idc.link_bytes"), "B"},
        {"idc.host_bytes", n("idc.host_bytes"), "B"},
        {"proto.dll_sent", n("proto.dll_sent"), "count"},
        {"proto.dll_retry_ratio",
         ratio(n("proto.dll_retries"), n("proto.dll_sent")),
         "ratio"},
        {"fault.corrupted", n("fault.corrupted"), "count"},
        {"dimm.mem_refs", n("dimm.mem_refs"), "count"},
        {"dimm.remote_refs", n("dimm.remote_refs"), "count"},
        {"dimm.l1_hit_ratio", l1HitRatio, "ratio"},
        {"dimm.l2_hit_ratio",
         ratio(n("dimm.l2_hits"),
               n("dimm.l2_hits") + n("dimm.l2_misses")),
         "ratio"},
        {"host.polls", n("host.polls"), "count"},
        {"host.useful_poll_ratio",
         n("host.polls") > 0
             ? 1 - n("host.idle_polls") / n("host.polls")
             : 0,
         "ratio"},
        {"host.channel_transfers", n("host.channel_transfers"),
         "count"},
        {"sync.messages", n("sync.messages"), "count"},
        {"sync.episodes", n("sync.episodes"), "count"},
        {"host_speed.probe_ms", medianProbeMs(untraced), "ms"},
        {"host_speed.raw_wall_s", medianOf(untraced, &PassResult::rawWallS),
         "s"},
    };
    std::printf("per-layer counts (exact, per pass):\n");
    for (const Metric &m : layer)
        printMetric(m);

    if (trace) {
        const double tracedWall = medianOf(traced, &PassResult::wallS);
        const LayerMix mix{ratio(n("dram.writes"), dramRequests),
                           rowHitRatio, l1HitRatio};
        rec.setEnabled(true);
        LayerCosts lc;
        const double before = probe.measure();
        try {
            lc = runLayerDrivers(spec->cfg, mix, seed, 5, rec, nextId++);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            stable = false;
        }
        rec.setEnabled(false);
        const double scale =
            HostProbe::refNs / ((before + probe.measure()) / 2);
        std::vector<Metric> timed = {
            {"system.build_s", medianOf(traced, &CellResult::buildS),
             "s"},
            {"workloads.make_s", medianOf(traced, &CellResult::makeS),
             "s"},
            {"common.stats_json_s",
             medianOf(traced, &CellResult::jsonS), "s"},
            {"sim.queue_ns_per_event", lc.queueNsPerEvent * scale, "ns"},
            {"dram.ctrl_ns_per_req", lc.dramNsPerRequest * scale, "ns"},
            {"noc.ns_per_flit", lc.nocNsPerFlit * scale, "ns"},
            {"proto.codec_ns_per_packet", lc.codecNsPerPacket * scale, "ns"},
            {"proto.dll_ns_per_packet", lc.dllNsPerPacket * scale, "ns"},
            {"dimm.cache_ns_per_access", lc.cacheNsPerAccess * scale, "ns"},
            {"trace.overhead_s", tracedWall - wall, "s"},
        };
        std::printf("per-layer host times (traced passes, medians; "
                    "layer drivers in isolation):\n");
        for (const Metric &m : timed)
            printMetric(m);
        for (std::size_t i = 0; i < spec->kernels.size(); ++i) {
            std::vector<double> v;
            for (const PassResult &p : traced)
                v.push_back(p.cells[i].runS * p.cells[i].scale);
            printMetric({"system.run_s." + spec->kernels[i], median(v),
                         "s"});
        }
        std::printf("  tracing overhead: traced wall_s %.6f s vs "
                    "untraced %.6f s (%+.3f %%)\n",
                    tracedWall, wall, 100 * ratio(tracedWall - wall, wall));
        printSpanSummary(rec);
        layer.insert(layer.end(), timed.begin(), timed.end());
    }

    std::fflush(stdout);
    printJson(stable && failed == 0, attempted, failed,
              trace ? layer : e2e);
    return 0;
}
