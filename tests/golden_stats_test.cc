/** @file Golden stats pins: one small classic-kernel cell per
 * subsystem seam (DIMM-Link routing, cross-group host forwarding, the
 * MCN baseline, stuck-link failover, the BER/DLL transport, rack
 * pooling and the serving reliability layer). Each cell pins an
 * FNV-1a-64 digest of its full stats JSON -- config header included,
 * exactly as `example_simulate --json` emits it -- plus kernelTicks,
 * and must replay byte for byte from its own config header.
 *
 * A refactor that claims to be pure must leave every pin untouched.
 * An intentional change to the simulated machine re-records the pins
 * it moves (the failure message prints the new values) and says why
 * in CHANGES.md. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include "common/stats_json.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

struct GoldenCell
{
    const char *name;
    std::function<SystemConfig()> config;
    const char *workload;
    std::uint64_t scale = 6;
    unsigned rounds = 2;
    std::uint64_t digest;
    Tick kernelTicks;
};

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

SystemConfig
dimmLink(const char *preset)
{
    auto cfg = SystemConfig::preset(preset);
    cfg.idcMethod = IdcMethod::DimmLink;
    return cfg;
}

/** One direction of the 4D machine's 1<->2 bridge link held down past
 * the retry budget for the whole run: exhaustion, health transitions,
 * route-around and host failover all execute. */
SystemConfig
stuckFailover()
{
    auto cfg = dimmLink("4D-2C");
    cfg.faults.model = "stuck";
    cfg.faults.stuckAtPs = 0;
    cfg.faults.stuckForPs = 400000000000000ULL;
    cfg.faults.stuckPeriodPs = 0;
    cfg.faults.linkFilter = "link1to2";
    cfg.faults.onExhausted = "failover";
    cfg.faults.seed = 7;
    return cfg;
}

SystemConfig
berDll()
{
    auto cfg = dimmLink("8D-4C");
    cfg.faults.model = "ber";
    cfg.faults.ber = 1e-3;
    return cfg;
}

SystemConfig
rackTwoHost()
{
    auto cfg = SystemConfig::fromFile(std::string(DIMMLINK_SOURCE_DIR) +
                                      "/configs/rack_2host.json");
    cfg.serve.requests = 512;
    cfg.serve.keys = 8192;
    return cfg;
}

/** The chaos-serving scenario: host 1's rack port dies mid-run on a
 * forwarded two-host rack with every reliability mechanism armed. */
SystemConfig
chaosServing()
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.rack.hosts = 2;
    cfg.rack.idcMode = "forwarded";
    cfg.rack.hostDownId = 1;
    cfg.rack.hostDownAtPs = 50000000;
    cfg.rack.hostDownForPs = 60000000;
    cfg.link.retryTimeoutPs = 40000000;
    cfg.serve.requests = 512;
    cfg.serve.keys = 8192;
    cfg.serve.deadlineUs = 25;
    cfg.serve.maxRetries = 3;
    cfg.serve.backoffUs = 5;
    cfg.serve.hedgeAfterUs = 10;
    cfg.serve.maxInflight = 128;
    return cfg;
}

std::string
runCell(const GoldenCell &cell, const SystemConfig &cfg,
        Tick &kernel_ticks)
{
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = cell.scale;
    p.rounds = cell.rounds;
    p.serve = cfg.serve;
    auto wl = workloads::makeWorkload(cell.workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();
    EXPECT_TRUE(r.verified) << cell.name;
    kernel_ticks = r.kernelTicks;
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/false,
                    &sys.config());
    return os.str();
}

const GoldenCell cells[] = {
    {"8D-4C dimmlink pagerank", [] { return dimmLink("8D-4C"); },
     "pagerank", 8, 2, 0xd41735b46419c467ULL, 16562614},
    {"16D-8C dimmlink bfs (cross-group)",
     [] { return dimmLink("16D-8C"); }, "bfs", 8, 2,
     0x233c315d9f77c30eULL, 49749674},
    {"4D-2C mcn spmv",
     [] {
         auto cfg = SystemConfig::preset("4D-2C");
         cfg.idcMethod = IdcMethod::CpuForwarding;
         return cfg;
     },
     "spmv", 8, 2, 0xec37cb2b68a9dba9ULL, 20696038},
    {"4D-2C stuck-link failover bfs", stuckFailover, "bfs", 6, 1,
     0x82d0e113668be6d3ULL, 63492682},
    {"8D-4C ber/dll pagerank", berDll, "pagerank", 8, 2,
     0xf6cb0825bbc392f1ULL, 47363334},
    {"rack_2host kv", rackTwoHost, "kv", 6, 2, 0x13e2eb27900db593ULL,
     381473898},
    {"chaos-serving kv", chaosServing, "kv", 6, 2, 0xb42c14eeb1b3d28bULL,
     383823160},
};

TEST(GoldenStats, EveryCellMatchesItsPin)
{
    for (const GoldenCell &cell : cells) {
        Tick ticks = 0;
        const std::string json = runCell(cell, cell.config(), ticks);
        ASSERT_FALSE(json.empty()) << cell.name;
        const std::uint64_t digest = fnv1a64(json);
        EXPECT_TRUE(digest == cell.digest && ticks == cell.kernelTicks)
            << "golden cell '" << cell.name << "' moved: digest 0x"
            << std::hex << digest << " (pinned 0x" << cell.digest
            << std::dec << "), kernelTicks " << ticks << " (pinned "
            << cell.kernelTicks << ")";
    }
}

/** The "config" object of a stats JSON dump, as emitted. It is flat,
 * so its first closing brace ends it. */
std::string
configSection(const std::string &json)
{
    const std::size_t begin = json.find('{', json.find("\"config\": "));
    const std::size_t end = json.find('}', begin);
    if (begin == std::string::npos || end == std::string::npos)
        return "";
    return json.substr(begin, end + 1 - begin);
}

TEST(GoldenStats, ReplaysFromItsOwnHeader)
{
    // A run record names the machine that produced it: feeding the
    // emitted config back in must rerun the same machine exactly.
    for (const GoldenCell &cell : cells) {
        Tick ticks = 0, replay_ticks = 0;
        const std::string json = runCell(cell, cell.config(), ticks);
        const std::string header = configSection(json);
        ASSERT_FALSE(header.empty()) << cell.name;
        const SystemConfig replayed =
            SystemConfig::fromString(header, cell.name);
        EXPECT_TRUE(runCell(cell, replayed, replay_ticks) == json)
            << "golden cell '" << cell.name
            << "' did not replay from its own config header";
        EXPECT_EQ(replay_ticks, ticks) << cell.name;
    }
}

} // namespace
} // namespace dimmlink
