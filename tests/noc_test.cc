/** @file Interconnect tests: topology construction and routing,
 * link serialization, router forwarding, credits, and broadcast. */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace noc {
namespace {

TEST(Topology, HalfRingStructure)
{
    TopologyGraph g(Topology::HalfRing, 8);
    EXPECT_EQ(g.numDirectedLinks(), 2u * 7);
    EXPECT_EQ(g.diameter(), 7u);
    EXPECT_EQ(g.distance(0, 7), 7u);
    EXPECT_EQ(g.nextHop(0, 7), 1);
    EXPECT_EQ(g.nextHop(7, 0), 6);
}

TEST(Topology, RingHalvesTheDiameter)
{
    TopologyGraph g(Topology::Ring, 8);
    EXPECT_EQ(g.numDirectedLinks(), 2u * 8);
    EXPECT_EQ(g.diameter(), 4u);
    EXPECT_EQ(g.distance(0, 7), 1u);
}

TEST(Topology, MeshAndTorus)
{
    TopologyGraph mesh(Topology::Mesh, 8); // 2 x 4 grid
    EXPECT_EQ(mesh.diameter(), 4u);        // corner to corner
    TopologyGraph torus(Topology::Torus, 8);
    EXPECT_LT(torus.diameter(), mesh.diameter());
}

TEST(Topology, TinyGroupsDegenerate)
{
    TopologyGraph g1(Topology::Ring, 1);
    EXPECT_EQ(g1.diameter(), 0u);
    TopologyGraph g2(Topology::Torus, 2);
    EXPECT_EQ(g2.diameter(), 1u);
}

struct TopoCase
{
    Topology kind;
    unsigned nodes;
};

class TopologyRouting : public ::testing::TestWithParam<TopoCase>
{
};

TEST_P(TopologyRouting, NextHopsReachDestinationInDistanceSteps)
{
    const auto [kind, n] = GetParam();
    TopologyGraph g(kind, n);
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            if (s == d)
                continue;
            int cur = static_cast<int>(s);
            unsigned hops = 0;
            while (cur != static_cast<int>(d)) {
                cur = g.nextHop(cur, static_cast<int>(d));
                ASSERT_GE(cur, 0);
                ++hops;
                ASSERT_LE(hops, n);
            }
            EXPECT_EQ(hops, g.distance(static_cast<int>(s),
                                       static_cast<int>(d)));
        }
    }
}

TEST_P(TopologyRouting, BroadcastTreeCoversEveryNodeOnce)
{
    const auto [kind, n] = GetParam();
    TopologyGraph g(kind, n);
    for (unsigned s = 0; s < n; ++s) {
        // Walk the tree from the source; every node must be visited
        // exactly once.
        std::set<int> visited;
        std::vector<int> frontier{static_cast<int>(s)};
        visited.insert(static_cast<int>(s));
        while (!frontier.empty()) {
            const int u = frontier.back();
            frontier.pop_back();
            for (int c :
                 g.broadcastChildren(static_cast<int>(s), u)) {
                ASSERT_TRUE(visited.insert(c).second)
                    << "node " << c << " visited twice";
                frontier.push_back(c);
            }
        }
        EXPECT_EQ(visited.size(), n);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyRouting,
    ::testing::Values(TopoCase{Topology::HalfRing, 2},
                      TopoCase{Topology::HalfRing, 4},
                      TopoCase{Topology::HalfRing, 8},
                      TopoCase{Topology::Ring, 4},
                      TopoCase{Topology::Ring, 8},
                      TopoCase{Topology::Mesh, 4},
                      TopoCase{Topology::Mesh, 8},
                      TopoCase{Topology::Torus, 8},
                      TopoCase{Topology::Torus, 12}));

TEST(Link, SerializationMatchesBandwidth)
{
    EventQueue eq;
    stats::Registry reg;
    Link link(eq, "l", 25.0, 8000, 128, reg.group("l"));
    // 10 flits = 160 bytes at 25 GB/s = 6.4 ns.
    EXPECT_EQ(link.serializationTime(10), 6400u);

    Tick arrived = 0;
    Message m;
    m.flits = 10;
    link.transmit(std::move(m), [&](Message msg) {
        arrived = eq.now();
        EXPECT_EQ(msg.hops, 1u);
    });
    eq.run();
    EXPECT_EQ(arrived, 6400u + 8000u);
}

TEST(Link, BackToBackTransfersQueue)
{
    EventQueue eq;
    stats::Registry reg;
    Link link(eq, "l", 25.0, 0, 128, reg.group("l"));
    Tick first = 0, second = 0;
    Message a, b;
    a.flits = b.flits = 10;
    link.transmit(std::move(a), [&](Message) { first = eq.now(); });
    link.transmit(std::move(b), [&](Message) { second = eq.now(); });
    eq.run();
    EXPECT_EQ(first, 6400u);
    EXPECT_EQ(second, 12800u);
}

/** Build a Network with config overrides for the tests below. */
LinkConfig
testLinkCfg(Topology topo, unsigned buffer_flits = 40)
{
    LinkConfig cfg;
    cfg.topology = topo;
    cfg.bufferFlits = buffer_flits;
    cfg.routerLatencyPs = 4000;
    cfg.wireLatencyPs = 8000;
    return cfg;
}

TEST(Network, SingleHopLatency)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 4, reg);

    Tick delivered = 0;
    Message m;
    m.src = 0;
    m.dst = 1;
    m.flits = 1;
    m.deliver = [&](int node) {
        EXPECT_EQ(node, 1);
        delivered = eq.now();
    };
    ASSERT_TRUE(net.tryInject(std::move(m)));
    eq.run();
    // router latency + serialization (16B at 25GB/s = 640ps) + wire
    // + downstream router latency before ejection.
    EXPECT_GE(delivered, 4000u + 640u + 8000u);
    EXPECT_LE(delivered, 4000u + 640u + 8000u + 2 * 4000u);
}

TEST(Network, MultiHopScalesWithDistance)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 8, reg);

    Tick t1 = 0, t7 = 0;
    Message a;
    a.src = 0;
    a.dst = 1;
    a.flits = 1;
    a.deliver = [&](int) { t1 = eq.now(); };
    Message b;
    b.src = 0;
    b.dst = 7;
    b.flits = 1;
    b.deliver = [&](int) { t7 = eq.now(); };
    ASSERT_TRUE(net.tryInject(std::move(a)));
    ASSERT_TRUE(net.tryInject(std::move(b)));
    eq.run();
    EXPECT_GT(t7, 5 * t1);
}

TEST(Network, BroadcastReachesAllNodes)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 6, reg);

    std::multiset<int> got;
    Message m;
    m.src = 2;
    m.broadcast = true;
    m.flits = 4;
    m.deliver = [&](int node) { got.insert(node); };
    ASSERT_TRUE(net.tryInject(std::move(m)));
    eq.run();
    EXPECT_EQ(got.size(), 6u);
    for (int n = 0; n < 6; ++n)
        EXPECT_EQ(got.count(n), 1u) << "node " << n;
}

/** A deliver functor that counts its own copies (moves are free). */
struct CopyCountingDeliver
{
    int *copies;
    int *delivered;

    CopyCountingDeliver(int *c, int *d) : copies(c), delivered(d) {}
    CopyCountingDeliver(const CopyCountingDeliver &o)
        : copies(o.copies), delivered(o.delivered)
    {
        ++*copies;
    }
    CopyCountingDeliver(CopyCountingDeliver &&) noexcept = default;
    void operator()(int) const { ++*delivered; }
};

TEST(Network, UnicastMessageIsMovedNotCopiedAcrossHops)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::HalfRing), 8, reg);

    int copies = 0, delivered = 0;
    Message m;
    m.src = 0;
    m.dst = 7; // Seven router hops on the half ring.
    m.flits = 3;
    m.deliver = CopyCountingDeliver(&copies, &delivered);
    copies = 0;
    ASSERT_TRUE(net.tryInject(std::move(m)));
    eq.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(copies, 0) << "the message was copied on its way";
}

TEST(Network, LatencyIsSampledOncePerEjection)
{
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(Topology::Ring), 6, reg);

    unsigned ejections = 0;
    for (int s = 0; s < 6; ++s) {
        Message m;
        m.src = s;
        m.dst = (s + 3) % 6;
        m.flits = 2;
        m.deliver = [&](int) { ++ejections; };
        ASSERT_TRUE(net.tryInject(std::move(m)));
    }
    eq.run();
    const auto &lat = reg.group("net").distribution("latencyPs");
    EXPECT_EQ(ejections, 6u);
    EXPECT_EQ(lat.count(), 6u);

    // A broadcast ejects once at every node, the source included,
    // and each ejection samples its latency once.
    std::multiset<int> got;
    Message b;
    b.src = 1;
    b.broadcast = true;
    b.flits = 4;
    b.deliver = [&](int node) { got.insert(node); };
    ASSERT_TRUE(net.tryInject(std::move(b)));
    eq.run();
    EXPECT_EQ(got.size(), 6u);
    for (int n = 0; n < 6; ++n)
        EXPECT_EQ(got.count(n), 1u) << "node " << n;
    EXPECT_EQ(lat.count(), 12u);
    EXPECT_EQ(net.messagesDelivered(), lat.count());
}

TEST(Network, LvalueInjectionLeavesTheMessageWithTheCaller)
{
    EventQueue eq;
    stats::Registry reg;
    // Tiny buffers: one 4-flit message fills the injection port.
    Network net(eq, "net", testLinkCfg(Topology::HalfRing, 4), 2, reg);

    unsigned delivered = 0;
    Message m;
    m.src = 0;
    m.dst = 1;
    m.flits = 4;
    m.deliver = [&](int) { ++delivered; };
    ASSERT_TRUE(net.tryInject(m));
    // The port is full: the second copy is refused, and the caller's
    // message (and its deliver) is intact for the retry.
    EXPECT_FALSE(net.tryInject(m));
    ASSERT_TRUE(static_cast<bool>(m.deliver));
    while (!net.tryInject(m))
        ASSERT_TRUE(eq.step());
    eq.run();
    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(reg.scalar("net.injectBlocked"), 2.0);
}

TEST(Network, InjectionBackpressureAndRetry)
{
    EventQueue eq;
    stats::Registry reg;
    // Tiny buffers: 4 flits per port.
    Network net(eq, "net", testLinkCfg(Topology::HalfRing, 4), 2,
                reg);

    unsigned delivered = 0;
    unsigned injected = 0;
    constexpr unsigned total = 20;
    std::function<void()> pump = [&] {
        while (injected < total) {
            Message m;
            m.src = 0;
            m.dst = 1;
            m.flits = 4;
            m.deliver = [&](int) { ++delivered; };
            if (!net.tryInject(std::move(m)))
                return;
            ++injected;
        }
    };
    net.setRetryHandler(0, pump);
    pump();
    EXPECT_LT(injected, total); // backpressure engaged
    eq.run();
    EXPECT_EQ(delivered, total);
    EXPECT_GT(reg.scalar("net.injectBlocked"), 0.0);
}

struct NetCase
{
    Topology kind;
    unsigned nodes;
    std::uint64_t seed;
};

class NetworkRandomTraffic : public ::testing::TestWithParam<NetCase>
{
};

TEST_P(NetworkRandomTraffic, EveryMessageDeliveredExactlyOnce)
{
    const auto [kind, nodes, seed] = GetParam();
    EventQueue eq;
    stats::Registry reg;
    Network net(eq, "net", testLinkCfg(kind), nodes, reg);
    Rng rng(seed);

    constexpr unsigned total = 300;
    std::map<std::uint64_t, unsigned> delivery_count;
    std::vector<std::deque<Message>> pending(nodes);

    unsigned delivered = 0;
    for (unsigned i = 0; i < total; ++i) {
        Message m;
        m.src = static_cast<int>(rng.below(nodes));
        m.broadcast = rng.chance(0.1);
        m.dst = static_cast<int>(rng.below(nodes));
        m.flits = 1 + static_cast<unsigned>(rng.below(17));
        m.id = i;
        const unsigned copies =
            m.broadcast ? nodes : 1;
        m.deliver = [&, copies, id = m.id](int) {
            ++delivery_count[id];
            ASSERT_LE(delivery_count[id], copies);
            ++delivered;
        };
        pending[static_cast<std::size_t>(m.src)].push_back(
            std::move(m));
    }

    unsigned expected = 0;
    for (auto &q : pending)
        for (auto &m : q)
            expected += m.broadcast ? nodes : 1;

    for (unsigned nidx = 0; nidx < nodes; ++nidx) {
        auto drain = [&net, &pending, nidx] {
            auto &q = pending[nidx];
            while (!q.empty()) {
                if (!net.tryInject(q.front()))
                    return;
                q.pop_front();
            }
        };
        net.setRetryHandler(static_cast<int>(nidx), drain);
        drain();
    }
    eq.run();
    EXPECT_EQ(delivered, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkRandomTraffic,
    ::testing::Values(NetCase{Topology::HalfRing, 4, 1},
                      NetCase{Topology::HalfRing, 8, 2},
                      NetCase{Topology::Ring, 8, 3},
                      NetCase{Topology::Mesh, 8, 4},
                      NetCase{Topology::Torus, 8, 5},
                      NetCase{Topology::HalfRing, 2, 6},
                      NetCase{Topology::Torus, 16, 7}));

} // namespace
} // namespace noc
} // namespace dimmlink
