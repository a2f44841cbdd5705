/** @file The serving frontend (docs/serving.md): arrival processes
 * and Zipfian popularity, deterministic request plans, the kv / embed
 * workloads end to end on the NMP system and the host baseline, the
 * serve stats group, and the byte-identity contract -- same
 * serve.seed, same stats JSON. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats_json.hh"
#include "dimm/reliability.hh"
#include "system/host_runner.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/arrivals.hh"
#include "workloads/serving.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

using workloads::ArrivalProcess;
using workloads::ZipfSampler;

TEST(Arrivals, DeterministicPerSeed)
{
    ArrivalProcess a(1e6, 42, 1.0, 0, 0);
    ArrivalProcess b(1e6, 42, 1.0, 0, 0);
    ArrivalProcess c(1e6, 43, 1.0, 0, 0);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const Tick ta = a.next();
        EXPECT_EQ(ta, b.next());
        any_diff |= ta != c.next();
    }
    EXPECT_TRUE(any_diff);
}

TEST(Arrivals, MeanRateMatchesOffered)
{
    // 1M qps -> mean gap 1e6 ps. 10k draws puts the sample mean
    // within a few percent (stddev/sqrt(n) = 1%).
    ArrivalProcess a(1e6, 7, 1.0, 0, 0);
    const int n = 10000;
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = a.next();
    const double mean_gap = static_cast<double>(last) / n;
    EXPECT_NEAR(mean_gap, 1e6, 5e4);
}

TEST(Arrivals, ArrivalsAreStrictlyMonotone)
{
    // Sub-tick gaps at absurd rates still advance time.
    ArrivalProcess a(1e12, 3, 1.0, 0, 0);
    Tick last = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tick t = a.next();
        EXPECT_GT(t, last);
        last = t;
    }
}

TEST(Arrivals, BurstPhasesConcentrateArrivals)
{
    // 4x bursts for the first 10% of each period: the burst windows
    // should hold far more than 10% of the arrivals (4x rate -> ~31%
    // of all arrivals at these settings).
    ArrivalProcess a(1e6, 11, 4.0, 1000000, 100000);
    int in_burst = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (a.inBurst(a.next()))
            ++in_burst;
    EXPECT_GT(in_burst, n / 5);
}

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(100, 0.0);
    Rng rng(1);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 1000, 250);
}

TEST(Zipf, SkewConcentratesOnHotKeys)
{
    ZipfSampler z(10000, 0.99);
    Rng rng(1);
    std::uint64_t hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (z(rng) < 10)
            ++hot;
    // At theta=0.99 the ten hottest of 10k keys draw roughly half
    // the accesses; uniform would give 0.1%.
    EXPECT_GT(hot, n / 4);
    // And every rank stays in range.
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z(rng), 10000u);
}

TEST(Serving, PlansAreDeterministicAndComplete)
{
    ServeConfig s;
    s.requests = 1000;
    s.keys = 4096;
    s.seed = 5;
    const auto plans = workloads::serving::buildPlans(s, 16, 2);
    const auto again = workloads::serving::buildPlans(s, 16, 2);
    ASSERT_EQ(plans.size(), 16u);
    std::uint64_t total = 0;
    for (unsigned t = 0; t < 16; ++t) {
        total += plans[t].reqs.size();
        EXPECT_EQ(plans[t].keys.size(), plans[t].reqs.size() * 2);
        EXPECT_EQ(plans[t].keys, again[t].keys);
        // Open-loop arrivals are strictly increasing per thread.
        Tick last = 0;
        for (const auto &r : plans[t].reqs) {
            EXPECT_GT(r.arrivalPs, last);
            last = r.arrivalPs;
            for (std::size_t k = 0; k < 2; ++k)
                EXPECT_LT(plans[t].keys[k], s.keys);
        }
    }
    EXPECT_EQ(total, s.requests);

    ServeConfig other = s;
    other.seed = 6;
    const auto differ = workloads::serving::buildPlans(other, 16, 2);
    EXPECT_NE(plans[0].keys, differ[0].keys);
}

struct ServeSpec
{
    std::string workload = "kv";
    std::string mode = "open";
    std::uint64_t seed = 1;
    std::uint64_t requests = 192;
    double offeredQps = 2e6;
    double burstFactor = 1.0;
};

/** One serving run on a 4D-2C system; returns full stats JSON plus
 * kernel summary, and checks the result verified. */
std::string
runServing(const ServeSpec &spec)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = spec.mode;
    cfg.serve.seed = spec.seed;
    cfg.serve.requests = spec.requests;
    cfg.serve.offeredQps = spec.offeredQps;
    cfg.serve.keys = 8192;
    cfg.serve.burstFactor = spec.burstFactor;
    if (spec.burstFactor > 1.0) {
        cfg.serve.burstPeriodPs = 10000000;
        cfg.serve.burstLenPs = 2000000;
    }
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl =
        workloads::makeWorkload(spec.workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified) << spec.workload << " seed=" << spec.seed;
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/true);
    os << "\nkernelTicks=" << r.kernelTicks;
    return os.str();
}

TEST(Serving, KvOpenLoopServesAndRecordsLatency)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.requests = 192;
    cfg.serve.keys = 8192;
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload("kv", p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);

    const auto &reg = sys.stats();
    EXPECT_DOUBLE_EQ(reg.scalar("serve.requests"), 192.0);
    const double p50 = reg.scalar("serve.latencyP50Ps");
    const double p95 = reg.scalar("serve.latencyP95Ps");
    const double p99 = reg.scalar("serve.latencyP99Ps");
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(reg.scalar("serve.achievedQps"), 0.0);
    EXPECT_DOUBLE_EQ(reg.scalar("serve.offeredQps"),
                     cfg.serve.offeredQps);
    // Open loop at a modest rate: cores idle between arrivals.
    EXPECT_GT(reg.scalar("serve.reqWaitPs"), 0.0);
}

TEST(Serving, EmbedClosedLoopServes)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = "closed";
    cfg.serve.requests = 96;
    cfg.serve.keys = 4096;
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload("embed", p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);

    const auto &reg = sys.stats();
    EXPECT_DOUBLE_EQ(reg.scalar("serve.requests"), 96.0);
    EXPECT_GT(reg.scalar("serve.latencyP50Ps"), 0.0);
    // Closed loop never waits for an arrival.
    EXPECT_DOUBLE_EQ(reg.scalar("serve.reqWaitPs"), 0.0);
    EXPECT_DOUBLE_EQ(reg.scalar("serve.offeredQps"), 0.0);
}

TEST(Serving, NonServingRunsHaveNoServeGroup)
{
    // The serve group and per-core request stats must stay invisible
    // when no request retires, so batch-kernel stats dumps are
    // unchanged by this feature.
    auto cfg = SystemConfig::preset("4D-2C");
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 4;
    auto wl = workloads::makeWorkload("gups", p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(sys.stats().hasScalar("serve.requests"));
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os);
    EXPECT_EQ(os.str().find("reqLatencyPs"), std::string::npos);
    EXPECT_EQ(os.str().find("\"serve\""), std::string::npos);
}

TEST(ServingDeterminism, RepeatRunsAreByteIdentical)
{
    std::vector<ServeSpec> specs;
    for (const char *w : {"kv", "embed"}) {
        for (std::uint64_t seed : {1, 7}) {
            ServeSpec s;
            s.workload = w;
            s.seed = seed;
            specs.push_back(s);
        }
    }
    ServeSpec closed;
    closed.mode = "closed";
    specs.push_back(closed);
    ServeSpec bursty;
    bursty.burstFactor = 4.0;
    specs.push_back(bursty);

    for (const ServeSpec &s : specs) {
        const std::string a = runServing(s);
        const std::string b = runServing(s);
        EXPECT_EQ(a, b) << s.workload << " " << s.mode
                        << " seed=" << s.seed
                        << " burstFactor=" << s.burstFactor;
    }
}

TEST(ServingDeterminism, SeedChangesTheRun)
{
    ServeSpec s;
    s.workload = "kv";
    s.seed = 1;
    const std::string a = runServing(s);
    s.seed = 2;
    EXPECT_NE(a, runServing(s));
}

TEST(Serving, HostBaselineServes)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.requests = 96;
    cfg.serve.keys = 4096;
    HostRunner host(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.host.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    dram::GlobalAddressMap gmap(cfg.numDimms, cfg.dimm.capacityBytes);
    auto wl = workloads::makeWorkload("kv", p, gmap);
    const RunResult r = host.run(*wl);
    EXPECT_TRUE(r.verified);
    EXPECT_DOUBLE_EQ(host.stats().scalar("serve.requests"), 96.0);
    EXPECT_GT(host.stats().scalar("serve.latencyP50Ps"), 0.0);
}

TEST(Serving, ConfigRejectsBadKnobs)
{
    auto bad = [](const char *key, const char *value,
                  const char *msg) {
        auto cfg = SystemConfig::preset("4D-2C");
        cfg.set(key, value);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    msg) << key << "=" << value;
    };
    bad("serve.mode", "batch", "serve.mode");
    bad("serve.zipfTheta", "1.5", "zipfTheta");
    bad("serve.getFraction", "1.5", "getFraction");
    bad("serve.offeredQps", "0", "offeredQps");
    bad("serve.requests", "0", "requests");
    bad("serve.burstFactor", "0.5", "burstFactor");
    // Reliability knobs (docs/serving.md).
    bad("serve.deadlineUs", "-1", "deadlineUs");
    bad("serve.backoffUs", "-1", "backoffUs");
    bad("serve.hedgeAfterUs", "-1", "hedgeAfterUs");
}

TEST(Serving, ConfigRejectsRetryAndShedMisuse)
{
    // Retries with no backoff would spin at the same tick.
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.set("serve.maxRetries", "3");
    cfg.set("serve.backoffUs", "0");
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "backoffUs");
    // Shedding needs a queue to bound: closed-loop threads never
    // queue arrivals.
    auto closed = SystemConfig::preset("4D-2C");
    closed.set("serve.mode", "closed");
    closed.set("serve.maxInflight", "8");
    EXPECT_EXIT(closed.validate(), ::testing::ExitedWithCode(1),
                "maxInflight");
}

// ---- Request-level reliability (docs/serving.md) -------------------

TEST(Reliability, BackoffIsDeterministicAndJittered)
{
    serve_rel::Backoff a, b, c;
    a.reseed(1, 0);
    b.reseed(1, 0);
    c.reseed(1, 1);
    const Tick base = 5000000;
    bool streams_differ = false;
    for (unsigned attempt = 1; attempt <= 10; ++attempt) {
        const Tick da = a.delay(base, attempt);
        // Same (seed, tid) -> the same delay sequence.
        EXPECT_EQ(da, b.delay(base, attempt));
        streams_differ |= da != c.delay(base, attempt);
        // Exponential envelope with jitter in [span/2, span].
        const Tick span = base << (attempt - 1);
        EXPECT_GE(da, span / 2);
        EXPECT_LE(da, span);
    }
    EXPECT_TRUE(streams_differ);
}

TEST(Reliability, CircuitBreakerLifecycle)
{
    using Decision = serve_rel::CircuitBreaker::Decision;
    serve_rel::CircuitBreaker cb;
    const Tick penalty = 500;
    // Closed + live route: admit without ceremony.
    EXPECT_EQ(cb.admit(1, true, 1000, penalty), Decision::Admit);
    // A dead route trips it open...
    EXPECT_EQ(cb.admit(1, false, 1000, penalty), Decision::FastFail);
    // ...and it fails fast through the penalty window even after the
    // route recovers.
    EXPECT_EQ(cb.admit(1, true, 1200, penalty), Decision::FastFail);
    // Penalty elapsed + route up: exactly one half-open trial.
    EXPECT_EQ(cb.admit(1, true, 1600, penalty), Decision::AdmitTrial);
    EXPECT_EQ(cb.admit(1, true, 1600, penalty), Decision::FastFail);
    // Trial failure re-opens with a fresh penalty.
    cb.onOutcome(1, false, 1700, penalty);
    EXPECT_EQ(cb.admit(1, true, 1800, penalty), Decision::FastFail);
    EXPECT_EQ(cb.admit(1, true, 2300, penalty), Decision::AdmitTrial);
    // Trial success closes it again.
    cb.onOutcome(1, true, 2400, penalty);
    EXPECT_EQ(cb.admit(1, true, 2500, penalty), Decision::Admit);
    // Breakers are per target host: host 2 was never tripped.
    EXPECT_EQ(cb.admit(2, false, 100, penalty), Decision::FastFail);
    EXPECT_EQ(cb.admit(1, true, 2600, penalty), Decision::Admit);
}

TEST(Reliability, HostHealthViewMirrorsRouteFailover)
{
    serve_rel::HostHealthView v(2);
    EXPECT_TRUE(v.routeUp(0, 1));
    // One dead rack port: the pooled gateways still connect them.
    v.portUp[1] = 0;
    EXPECT_TRUE(v.routeUp(0, 1));
    // Both cross-host paths dead: the route is gone...
    v.gwUp[1] = 0;
    EXPECT_FALSE(v.routeUp(0, 1));
    // ...but a host always reaches itself.
    EXPECT_TRUE(v.routeUp(1, 1));
    v.portUp[1] = 1;
    EXPECT_TRUE(v.routeUp(0, 1));
}

/** Reliability counters of one serving run (0 when a scalar was
 * never created). */
struct RelStats
{
    std::string json;        ///< Every registered stat, zeros included.
    std::string compactJson; ///< The default dump: nonzero stats only.
    double requests = 0, misses = 0, shed = 0, retries = 0,
           fastFails = 0, failed = 0, hedges = 0, hedgeWins = 0,
           goodput = 0, errorRate = 0;
};

RelStats
runReliability(const SystemConfig &cfg, const char *workload = "kv")
{
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload(workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    // Aborted requests consume their ops without executing them, so
    // the workload's functional reference must still hold.
    EXPECT_TRUE(r.verified) << workload;
    const auto &reg = sys.stats();
    auto sv = [&](const char *s) {
        const std::string key = std::string("serve.") + s;
        return reg.hasScalar(key) ? reg.scalar(key) : 0.0;
    };
    RelStats out;
    out.requests = sv("requests");
    out.misses = sv("deadlineMisses");
    out.shed = sv("shedRequests");
    out.retries = sv("retries");
    out.fastFails = sv("breakerFastFails");
    out.failed = sv("failedRequests");
    out.hedges = sv("hedgedRequests");
    out.hedgeWins = sv("hedgeWins");
    out.goodput = sv("goodputQps");
    out.errorRate = sv("errorRate");
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/true);
    out.json = os.str();
    std::ostringstream compact;
    stats::dumpJson(sys.stats(), compact);
    out.compactJson = compact.str();
    return out;
}

SystemConfig
relConfig()
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.serve.mode = "open";
    cfg.serve.requests = 192;
    cfg.serve.keys = 8192;
    return cfg;
}

TEST(Reliability, ImpossibleDeadlineMissesEveryRequestExactlyOnce)
{
    // A 1 ns budget is gone before any value ref lands: every request
    // must miss exactly once, none may also complete, and the serve
    // group must still aggregate explicit zeros (the zero-completion
    // regression: all-shed/all-missed runs ARE a result).
    auto cfg = relConfig();
    cfg.serve.deadlineUs = 0.001;
    const RelStats r = runReliability(cfg);
    EXPECT_DOUBLE_EQ(r.misses, 192.0);
    EXPECT_DOUBLE_EQ(r.requests, 0.0);
    EXPECT_DOUBLE_EQ(r.errorRate, 1.0);
    EXPECT_DOUBLE_EQ(r.goodput, 0.0);
    EXPECT_NE(r.json.find("\"serve\""), std::string::npos);
}

TEST(Reliability, GenerousDeadlineCatchesNothing)
{
    // At a modest offered rate every request finishes far inside a
    // 500 us budget: arming the layer must not change the outcome.
    auto cfg = relConfig();
    cfg.serve.deadlineUs = 500;
    const RelStats r = runReliability(cfg);
    EXPECT_DOUBLE_EQ(r.requests, 192.0);
    EXPECT_DOUBLE_EQ(r.misses, 0.0);
    EXPECT_DOUBLE_EQ(r.errorRate, 0.0);
    EXPECT_GT(r.goodput, 0.0);
}

TEST(Reliability, DispositionsPartitionTheRunUnderPressure)
{
    // Overdriven far past per-thread service capacity with a tight
    // deadline: some requests miss in the queue, the rest complete,
    // and every request is disposed of exactly once.
    auto cfg = relConfig();
    cfg.serve.offeredQps = 1e8;
    cfg.serve.requests = 640;
    cfg.serve.deadlineUs = 0.5;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.misses, 0.0);
    EXPECT_GT(r.requests, 0.0);
    EXPECT_DOUBLE_EQ(r.requests + r.misses + r.shed + r.failed, 640.0);
}

TEST(Reliability, OverloadShedsTheQueueTail)
{
    // Arrivals 4x faster than per-thread service with a 4-deep
    // admission bound: the backlog past the bound is shed, and shed
    // requests never also miss their deadline.
    auto cfg = relConfig();
    cfg.serve.offeredQps = 1e8;
    cfg.serve.requests = 640;
    cfg.serve.maxInflight = 4;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.shed, 0.0);
    EXPECT_DOUBLE_EQ(r.requests + r.shed, 640.0);
    EXPECT_NEAR(r.errorRate, r.shed / 640.0, 1e-12);
}

TEST(Reliability, HedgedGetsRaceTheReplica)
{
    // With a hedge trigger under the typical value fetch time, slow
    // GETs duplicate to the replica range; wins are a subset, and
    // every request still completes (hedging never drops work).
    auto cfg = relConfig();
    cfg.serve.hedgeAfterUs = 0.3;
    const RelStats r = runReliability(cfg);
    EXPECT_GT(r.hedges, 0.0);
    EXPECT_LE(r.hedgeWins, r.hedges);
    EXPECT_DOUBLE_EQ(r.requests, 192.0);
    EXPECT_DOUBLE_EQ(r.errorRate, 0.0);
}

TEST(Reliability, KnobsOffKeepTheStatsShape)
{
    // The idle layer writes nothing: a rel-off run adds no aggregated
    // reliability scalar, and the per-core counters (registered with
    // the core) stay at zero, so the default dump omits them.
    auto cfg = relConfig();
    const RelStats r = runReliability(cfg);
    EXPECT_DOUBLE_EQ(r.requests, 192.0);
    EXPECT_EQ(r.json.find("goodputQps"), std::string::npos);
    EXPECT_NE(r.json.find("reqDeadlineMisses"), std::string::npos);
    EXPECT_EQ(r.compactJson.find("reqDeadlineMisses"), std::string::npos);
    EXPECT_EQ(r.compactJson.find("reqShed"), std::string::npos);
}

/** The chaos scenario of bench/chaos_serving.cc, shrunk for a unit
 * test: two hosts in forwarded mode, host 1's rack port dying mid-run
 * with every reliability mechanism armed. */
SystemConfig
chaosConfig()
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.rack.hosts = 2;
    cfg.rack.idcMode = "forwarded";
    cfg.rack.hostDownId = 1;
    cfg.rack.hostDownAtPs = 50000000;
    cfg.rack.hostDownForPs = 60000000;
    cfg.link.retryTimeoutPs = 40000000;
    cfg.serve.mode = "open";
    cfg.serve.offeredQps = 2e6;
    cfg.serve.requests = 512;
    cfg.serve.keys = 8192;
    cfg.serve.deadlineUs = 25;
    cfg.serve.maxRetries = 3;
    cfg.serve.backoffUs = 5;
    cfg.serve.maxInflight = 128;
    return cfg;
}

TEST(Reliability, ChaosRunDegradesGracefully)
{
    const RelStats r = runReliability(chaosConfig());
    // The outage must actually bite (deadline misses among the parked
    // crossings) while the vast majority of requests still complete.
    EXPECT_GT(r.misses, 0.0);
    EXPECT_GT(r.requests, 0.9 * 512);
    EXPECT_DOUBLE_EQ(r.requests + r.misses + r.shed + r.failed, 512.0);
}

TEST(ReliabilityDeterminism, RepeatChaosRunsAreByteIdentical)
{
    const RelStats a = runReliability(chaosConfig());
    const RelStats b = runReliability(chaosConfig());
    EXPECT_EQ(a.json, b.json);
}

} // namespace
} // namespace dimmlink
