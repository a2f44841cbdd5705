/** @file Rack-scale memory pooling (docs/rack.md): the rack keys in
 * the config header, a disabled layer that builds nothing (rack knobs
 * at hosts = 1 -> byte-identical stats JSON), multi-host repeat-run
 * determinism, pooled vs. host-forwarded cross-host routing,
 * host-death and gateway-death failover with nonzero reroute
 * counters, and validate() rejections for bad rack knobs. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/stats_json.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

/** The paper's 8-DIMM machine as a two-host rack: one DL group (and
 * two channels) per host, kv serving across the whole pool. */
SystemConfig
twoHostConfig()
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.rack.hosts = 2;
    cfg.serve.requests = 256;
    cfg.serve.keys = 8192;
    return cfg;
}

struct RackRun
{
    std::unique_ptr<System> sys;
    RunResult result;

    double
    stat(const std::string &dotted) const
    {
        return sys->stats().scalar(dotted);
    }

    std::string
    json() const
    {
        std::ostringstream os;
        stats::dumpJson(sys->stats(), os, /*include_empty=*/true);
        os << "\nkernelTicks=" << result.kernelTicks;
        return os.str();
    }
};

RackRun
runKv(const SystemConfig &cfg)
{
    RackRun run;
    run.sys = std::make_unique<System>(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload("kv", p, run.sys->addressMap());
    Runner runner(*run.sys, *wl);
    run.result = runner.run();
    EXPECT_TRUE(run.result.verified);
    return run;
}

TEST(RackConfig, KeysAreInDescribe)
{
    // The rack shapes every result, so the config header embedded in
    // stats JSON must record all 14 rack.* keys.
    const auto cfg = twoHostConfig();
    unsigned rack_keys = 0;
    for (const auto &[key, value] : cfg.describeEntries())
        if (key.substr(0, 5) == "rack.")
            ++rack_keys;
    EXPECT_EQ(rack_keys, 14u);
    EXPECT_NE(cfg.describe().find("\"rack.hosts\": 2"),
              std::string::npos);
}

TEST(RackConfig, PartitionHelpers)
{
    const auto cfg = twoHostConfig();
    ASSERT_EQ(cfg.numGroups(), 2u);
    EXPECT_EQ(cfg.groupsPerHost(), 1u);
    EXPECT_EQ(cfg.hostOf(0), 0u);
    EXPECT_EQ(cfg.hostOf(3), 0u);
    EXPECT_EQ(cfg.hostOf(4), 1u);
    EXPECT_EQ(cfg.hostOf(7), 1u);
    EXPECT_EQ(cfg.gatewayGroupOf(1), 1u);

    // Single-host configs degenerate to host 0 everywhere.
    const auto one = SystemConfig::preset("8D-4C");
    EXPECT_FALSE(one.rackEnabled());
    EXPECT_EQ(one.hostOf(7), 0u);
}

TEST(Rack, DisabledLayerIsByteInvisible)
{
    // A config that never mentions the rack and one with every rack
    // knob twiddled but hosts = 1 must produce byte-identical stats
    // JSON: the layer builds nothing when unused.
    auto plain = SystemConfig::preset("8D-4C");
    plain.serve.requests = 128;
    plain.serve.keys = 8192;
    auto tweaked = plain;
    tweaked.rack.fabric = "direct";
    tweaked.rack.idcMode = "forwarded";
    tweaked.rack.latencyPs = 1500000;
    tweaked.rack.portGBps = 8.0;
    tweaked.validate();
    EXPECT_EQ(runKv(plain).json(), runKv(tweaked).json());
}

TEST(Rack, PooledModeCrossesOnBridges)
{
    const auto run = runKv(twoHostConfig());
    // Keys hash across the pool: both hosts serve, and cross-host
    // traffic rides the pooled lanes, never the host path.
    EXPECT_GT(run.stat("rack.pooledTransfers"), 0.0);
    EXPECT_GT(run.stat("rack.pooledBytes"), 0.0);
    EXPECT_DOUBLE_EQ(run.stat("rack.crossings"), 0.0);
    EXPECT_DOUBLE_EQ(run.stat("rack.reroutes"), 0.0);
    // Per-host SLO percentiles partition the rack-wide count.
    const double h0 = run.stat("serve.host0.requests");
    const double h1 = run.stat("serve.host1.requests");
    EXPECT_GT(h0, 0.0);
    EXPECT_GT(h1, 0.0);
    EXPECT_DOUBLE_EQ(h0 + h1, run.stat("serve.requests"));
    EXPECT_GT(run.stat("serve.host0.latencyP99Ps"), 0.0);
    EXPECT_GE(run.stat("serve.host1.latencyP99Ps"),
              run.stat("serve.host1.latencyP50Ps"));
}

TEST(Rack, ForwardedModeCrossesTheFabric)
{
    auto cfg = twoHostConfig();
    cfg.rack.idcMode = "forwarded";
    const auto run = runKv(cfg);
    EXPECT_GT(run.stat("rack.crossings"), 0.0);
    EXPECT_GT(run.stat("rack.forwardedBytes"), 0.0);
    EXPECT_DOUBLE_EQ(run.stat("rack.pooledTransfers"), 0.0);
}

TEST(Rack, PooledBridgesBeatHostForwarding)
{
    // The paper's point at rack scale: direct bridges skip polling
    // discovery, the host copy machinery and the switch hops, so the
    // same closed-loop run finishes sooner -- across the whole
    // 300-1500 ns CXL sweep (BENCH_rack.json extends this).
    for (const Tick lat : {300000ull, 1500000ull}) {
        auto pooled = twoHostConfig();
        pooled.serve.mode = "closed";
        pooled.rack.latencyPs = lat;
        auto forwarded = pooled;
        forwarded.rack.idcMode = "forwarded";
        const auto rp = runKv(pooled);
        const auto rf = runKv(forwarded);
        EXPECT_LT(rp.result.kernelTicks, rf.result.kernelTicks)
            << "latencyPs=" << lat;
    }
}

TEST(RackDeterminism, RepeatRunsAreByteIdentical)
{
    auto cfg = twoHostConfig();
    cfg.rack.hostDownId = 1;
    cfg.rack.hostDownAtPs = 20000000;
    EXPECT_EQ(runKv(cfg).json(), runKv(cfg).json());
}

TEST(RackFailover, HostDeathReroutesOntoPooledBridges)
{
    // Forwarded primary; host 1's rack port dies 20 us in. Traffic
    // keeps flowing (the run completes) over the pooled lanes, and
    // every post-death crossing counts a reroute.
    auto cfg = twoHostConfig();
    cfg.rack.idcMode = "forwarded";
    cfg.serve.requests = 512;
    cfg.rack.hostDownId = 1;
    cfg.rack.hostDownAtPs = 20000000;
    const auto run = runKv(cfg);
    EXPECT_GT(run.stat("rack.portDownEvents"), 0.0);
    EXPECT_GT(run.stat("rack.reroutes"), 0.0);
    EXPECT_GT(run.stat("rack.pooledTransfers"), 0.0);
    EXPECT_GT(run.stat("rack.healthProbesSent"), 0.0);
    EXPECT_GT(run.stat("rack.healthProbesFailed"), 0.0);
    EXPECT_DOUBLE_EQ(run.stat("serve.requests"), 512.0);
}

TEST(RackFailover, GatewayDeathReroutesOntoHostPath)
{
    // Pooled primary; host 1's gateway pool node loses its bridge
    // attach. Cross-host traffic falls back to the host-forwarded
    // path through the rack fabric.
    auto cfg = twoHostConfig();
    cfg.serve.requests = 512;
    cfg.rack.nodeDownId = 1;
    cfg.rack.nodeDownAtPs = 20000000;
    const auto run = runKv(cfg);
    EXPECT_GT(run.stat("rack.portDownEvents"), 0.0);
    EXPECT_GT(run.stat("rack.reroutes"), 0.0);
    EXPECT_GT(run.stat("rack.crossings"), 0.0);
    EXPECT_DOUBLE_EQ(run.stat("serve.requests"), 512.0);
}

TEST(RackValidateDeathTest, RejectsBadKnobs)
{
    const auto base = twoHostConfig();
    const auto dies = [](const SystemConfig &bad, const char *what) {
        EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                    what);
    };

    auto bad = base;
    bad.rack.hosts = 4; // more hosts than DL groups
    dies(bad, "exceeds the number of DL groups");

    // Hosts that fit but do not divide the groups evenly.
    bad = SystemConfig::preset("16D-8C");
    bad.dimmsPerGroup = 4; // four groups
    bad.rack.hosts = 3;
    dies(bad, "cover[\n ]+the 4 DL groups exactly");

    bad = base;
    bad.idcMethod = IdcMethod::CpuForwarding;
    dies(bad, "requires the DIMM-Link fabric");

    bad = base;
    bad.rack.fabric = "infiniband";
    dies(bad, "unknown inter-host fabric 'infiniband'");

    bad = base;
    bad.rack.idcMode = "teleport";
    dies(bad, "rack.idcMode must be 'pooled' or 'forwarded'");

    bad = base;
    bad.rack.latencyPs = 0;
    dies(bad, "rack.latencyPs must be positive");

    bad = base;
    bad.rack.portGBps = 0;
    dies(bad, "pooledGBps must be");

    bad = base;
    bad.rack.hostDownId = 2;
    bad.rack.hostDownAtPs = 1;
    dies(bad, "hostDownId.*out of range");

    // A non-gateway pool node has no bridge attach to kill.
    bad = SystemConfig::preset("16D-8C");
    bad.rack.hosts = 2;
    bad.dimmsPerGroup = 4; // four groups, two per host
    bad.rack.nodeDownId = 1;
    bad.rack.nodeDownAtPs = 1;
    dies(bad, "not a gateway");

    // The unknown-key error now names the rack section.
    auto cfg = base;
    EXPECT_EXIT(cfg.set("rack.bogus", "1"),
                ::testing::ExitedWithCode(1),
                "keys in section 'rack'");
}

} // namespace
} // namespace dimmlink
