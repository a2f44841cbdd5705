/** @file Tests for the implementation registries: the generic Factory
 * machinery, the built-in registrations, the pluggable DRAM scheduler,
 * and registry-vs-direct construction determinism. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/config.hh"
#include "common/factory.hh"
#include "common/stats.hh"
#include "common/stats_json.hh"
#include "dram/address_map.hh"
#include "dram/dram_controller.hh"
#include "dram/sched_policy.hh"
#include "host/polling.hh"
#include "idc/abc_fabric.hh"
#include "idc/aim_fabric.hh"
#include "idc/dl_fabric.hh"
#include "idc/fabric.hh"
#include "idc/mcn_fabric.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "workloads/workload.hh"

namespace dimmlink {

// ---- generic Factory machinery ----------------------------------------

namespace {

struct Widget
{
    virtual ~Widget() = default;
    virtual int value() const = 0;
};

struct FortyTwo : Widget
{
    int value() const override { return 42; }
};

struct Seven : Widget
{
    int value() const override { return 7; }
};

} // namespace

template <>
struct FactoryTraits<Widget>
{
    static constexpr const char *noun = "widget";
};

namespace {

using WidgetFactory = Factory<Widget>;

WidgetFactory::Registrar regFortyTwo("forty-two", []()
    -> std::unique_ptr<Widget> { return std::make_unique<FortyTwo>(); });
WidgetFactory::Registrar regSeven("seven", []()
    -> std::unique_ptr<Widget> { return std::make_unique<Seven>(); });

TEST(Factory, CreatesRegisteredImplementations)
{
    auto &f = WidgetFactory::instance();
    EXPECT_TRUE(f.contains("forty-two"));
    EXPECT_TRUE(f.contains("seven"));
    EXPECT_FALSE(f.contains("eight"));
    EXPECT_EQ(f.create("forty-two")->value(), 42);
    EXPECT_EQ(f.create("seven")->value(), 7);
}

TEST(Factory, KnownNamesAreSorted)
{
    const auto names = WidgetFactory::instance().known();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "forty-two");
    EXPECT_EQ(names[1], "seven");
    EXPECT_EQ(WidgetFactory::instance().knownList(),
              "forty-two, seven");
}

TEST(FactoryDeathTest, UnknownNameFatalsListingRegistered)
{
    EXPECT_EXIT(WidgetFactory::instance().create("gizmo"),
                ::testing::ExitedWithCode(1),
                "unknown widget 'gizmo' \\(registered: "
                "forty-two, seven\\)");
}

TEST(FactoryDeathTest, DuplicateRegistrationPanics)
{
    EXPECT_DEATH(WidgetFactory::instance().add(
                     "seven",
                     []() -> std::unique_ptr<Widget> {
                         return std::make_unique<Seven>();
                     }),
                 "duplicate widget registration 'seven'");
}

// ---- the built-in registries are populated ----------------------------

TEST(Registries, BuiltInImplementationsAreRegistered)
{
    const std::vector<std::string> fabrics =
        idc::FabricFactory::instance().known();
    EXPECT_EQ(fabrics, (std::vector<std::string>{
                           "ABC-DIMM", "AIM", "DIMM-Link", "MCN"}));

    const std::vector<std::string> topos =
        noc::TopologyFactory::instance().known();
    EXPECT_EQ(topos, (std::vector<std::string>{"HalfRing", "Mesh",
                                               "Ring", "Torus"}));

    const std::vector<std::string> polls =
        host::PollingEngineFactory::instance().known();
    EXPECT_EQ(polls, (std::vector<std::string>{
                         "Base", "Base+Itrpt", "P-P", "P-P+Itrpt"}));

    const std::vector<std::string> scheds =
        dram::SchedPolicyFactory::instance().known();
    EXPECT_EQ(scheds, (std::vector<std::string>{"FCFS", "FRFCFS"}));

    const std::vector<std::string> wls = workloads::knownWorkloads();
    EXPECT_EQ(wls, (std::vector<std::string>{
                       "bfs", "embed", "gups", "hotspot", "kmeans",
                       "kv", "nw", "pagerank", "spmv", "sssp",
                       "stream", "syncbench", "tspow"}));
}

TEST(Registries, EveryEnumNameResolvesInItsRegistry)
{
    for (auto m : {IdcMethod::CpuForwarding, IdcMethod::DedicatedBus,
                   IdcMethod::ChannelBroadcast, IdcMethod::DimmLink})
        EXPECT_TRUE(idc::FabricFactory::instance().contains(
            toString(m)));
    for (auto t : {Topology::HalfRing, Topology::Ring, Topology::Mesh,
                   Topology::Torus})
        EXPECT_TRUE(noc::TopologyFactory::instance().contains(
            toString(t)));
    for (auto p : {PollingMode::Baseline, PollingMode::BaselineInterrupt,
                   PollingMode::Proxy, PollingMode::ProxyInterrupt})
        EXPECT_TRUE(host::PollingEngineFactory::instance().contains(
            toString(p)));
}

TEST(RegistriesDeathTest, UnknownTopologyListsAlternatives)
{
    EXPECT_EXIT(noc::TopologyGraph(static_cast<Topology>(99), 4),
                ::testing::ExitedWithCode(1),
                "unknown NoC topology");
}

// ---- DRAM scheduling policies -----------------------------------------

namespace {

/** Drive one single-rank controller and record completion order. */
class SchedFixture
{
  public:
    explicit SchedFixture(const std::string &policy)
        : timing(dram::Timing::preset("DDR4_2400")),
          map(timing, 1, 64),
          ctrl(eq, "ctl", timing, 1, 64, reg.group("ctl"), policy)
    {}

    /** Find an address on bank 0 with the given row (column 0/1). */
    Addr
    addrAt(unsigned row, unsigned column)
    {
        for (Addr a = 0; a < (Addr{1} << 34); a += 64) {
            const dram::DramCoord c = map.decode(a);
            if (c.rank == 0 && c.bankGroup == 0 && c.bank == 0 &&
                c.row == row && c.column == column)
                return a;
        }
        ADD_FAILURE() << "no address with row " << row;
        return 0;
    }

    void
    read(Addr a, char tag)
    {
        dram::DramRequest req;
        req.local = a;
        req.done = [this, tag] { order.push_back(tag); };
        ASSERT_TRUE(ctrl.enqueue(std::move(req)));
    }

    EventQueue eq;
    stats::Registry reg;
    dram::Timing timing;
    dram::LocalAddressMap map;
    dram::DramController ctrl;
    std::string order;
};

} // namespace

TEST(SchedPolicy, FrFcfsServesReadyRowHitFirst)
{
    SchedFixture f("FRFCFS");
    f.read(f.addrAt(0, 0), 'A'); // opens row 0
    f.read(f.addrAt(1, 0), 'B'); // row conflict
    f.read(f.addrAt(0, 1), 'C'); // hit on the row A opened
    f.eq.runUntil(f.eq.now() + 2 * tickPerUs);
    EXPECT_EQ(f.order, "ACB");
}

TEST(SchedPolicy, FcfsServesStrictlyInOrder)
{
    SchedFixture f("FCFS");
    f.read(f.addrAt(0, 0), 'A');
    f.read(f.addrAt(1, 0), 'B');
    f.read(f.addrAt(0, 1), 'C');
    f.eq.runUntil(f.eq.now() + 2 * tickPerUs);
    EXPECT_EQ(f.order, "ABC");
}

TEST(SchedPolicyDeathTest, UnknownPolicyListsRegistered)
{
    EventQueue eq;
    stats::Registry reg;
    const dram::Timing t = dram::Timing::preset("DDR4_2400");
    EXPECT_EXIT(dram::DramController(eq, "ctl", t, 1, 64,
                                     reg.group("ctl"), "LIFO"),
                ::testing::ExitedWithCode(1),
                "unknown DRAM scheduling policy 'LIFO' "
                "\\(registered: FCFS, FRFCFS\\)");
}

// ---- registry-built fabrics behave identically to direct builds -------

namespace {

/** Build a fabric, drive a fixed transaction mix, dump the stats. */
std::string
driveFabric(const SystemConfig &cfg, bool via_registry)
{
    EventQueue eq;
    stats::Registry reg;
    std::vector<std::unique_ptr<host::Channel>> channels;
    std::vector<host::Channel *> ptrs;
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string n = "host.channel" + std::to_string(c);
        channels.push_back(std::make_unique<host::Channel>(
            eq, n, cfg.host.channelGBps, reg.group(n)));
        ptrs.push_back(channels.back().get());
    }

    std::unique_ptr<idc::Fabric> fabric;
    if (via_registry) {
        fabric = idc::makeFabric(eq, cfg, ptrs, reg);
    } else {
        switch (cfg.idcMethod) {
          case IdcMethod::CpuForwarding:
            fabric = std::make_unique<idc::McnFabric>(eq, cfg, ptrs,
                                                      reg);
            break;
          case IdcMethod::DedicatedBus:
            fabric = std::make_unique<idc::AimFabric>(eq, cfg, ptrs,
                                                      reg);
            break;
          case IdcMethod::ChannelBroadcast:
            fabric = std::make_unique<idc::AbcFabric>(eq, cfg, ptrs,
                                                      reg);
            break;
          case IdcMethod::DimmLink:
            fabric = std::make_unique<idc::DlFabric>(eq, cfg, ptrs,
                                                     reg);
            break;
        }
    }

    fabric->setMemAccess([&eq](DimmId, Addr, std::uint32_t, bool,
                               EventCallback done) {
        eq.scheduleIn(60 * tickPerNs, std::move(done));
    });
    fabric->enterNmpMode();

    unsigned outstanding = 0;
    auto submit = [&](idc::Transaction::Type type, DimmId src,
                      DimmId dst, std::uint32_t bytes) {
        idc::Transaction t;
        t.type = type;
        t.src = src;
        t.dst = dst;
        t.bytes = bytes;
        t.onComplete = [&outstanding] { --outstanding; };
        ++outstanding;
        fabric->submit(std::move(t));
    };

    submit(idc::Transaction::Type::RemoteRead, 0, 1, 256);
    submit(idc::Transaction::Type::RemoteWrite, 3, 0, 4096);
    submit(idc::Transaction::Type::SyncMessage, 2, 1, 8);
    submit(idc::Transaction::Type::Broadcast, 1, 0, 1024);
    while (outstanding > 0 && eq.step()) {
    }
    EXPECT_EQ(outstanding, 0u);
    fabric->exitNmpMode();

    std::ostringstream os;
    stats::dumpJson(reg, os, true);
    return os.str();
}

} // namespace

TEST(Registries, FabricsMatchDirectConstructionByteForByte)
{
    for (auto m : {IdcMethod::CpuForwarding, IdcMethod::DedicatedBus,
                   IdcMethod::ChannelBroadcast, IdcMethod::DimmLink}) {
        SystemConfig cfg = SystemConfig::preset("4D-2C");
        cfg.idcMethod = m;
        const std::string direct = driveFabric(cfg, false);
        const std::string registry = driveFabric(cfg, true);
        EXPECT_EQ(direct, registry) << "fabric " << toString(m);
        EXPECT_NE(direct.find("\"transactions\": 4"),
                  std::string::npos)
            << "fabric " << toString(m);
    }
}

} // namespace
} // namespace dimmlink
