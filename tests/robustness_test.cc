/** @file End-to-end link-failure recovery: the link-health state
 * machine, topology route-around, the exhaustion fallback policies,
 * the hang watchdog, decoder/parser fuzzing, and whole-system runs
 * with a permanently stuck link that must still complete and verify
 * under every recovery policy. */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/stats_json.hh"
#include "dimm/dl_controller.hh"
#include "fault/link_health.hh"
#include "noc/topology.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
#include "proto/packet.hh"
#include "sim/event_queue.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "system/watchdog.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace {

using fault::LinkState;
using proto::Packet;

// ---------------------------------------------------------------------
// Link health state machine.
// ---------------------------------------------------------------------

struct HealthHarness
{
    EventQueue eq;
    // suspect after 2 blames, reprobe every 1000 ps, probe timeout 500.
    fault::LinkHealth h{eq, 2, 1000, 500};

    struct Probe
    {
        int a, b;
        std::uint64_t id;
    };
    std::vector<Probe> probes;
    std::vector<std::tuple<int, int, LinkState, LinkState>> transitions;
    unsigned probeFailures = 0;

    HealthHarness()
    {
        fault::LinkHealth::Callbacks cb;
        cb.sendProbe = [this](int a, int b, std::uint64_t id) {
            probes.push_back({a, b, id});
        };
        cb.onTransition = [this](int a, int b, LinkState f,
                                 LinkState t) {
            transitions.emplace_back(a, b, f, t);
        };
        cb.onProbeFailed = [this](int, int) { ++probeFailures; };
        h.setCallbacks(std::move(cb));
        h.addEdge(0, 1);
    }

    void blame() { h.noteExhausted({{0, 1}}); }

    /** Step until @p pred holds or @p max_events ran. */
    template <typename Pred>
    bool
    stepUntil(Pred pred, unsigned max_events = 64)
    {
        for (unsigned i = 0; i < max_events; ++i) {
            if (pred())
                return true;
            if (!eq.step())
                return pred();
        }
        return pred();
    }
};

TEST(LinkHealth, StaysUpBelowSuspectThreshold)
{
    HealthHarness t;
    t.blame();
    EXPECT_EQ(t.h.state(0, 1), LinkState::Up);
    EXPECT_TRUE(t.probes.empty());
    EXPECT_TRUE(t.transitions.empty());
    EXPECT_EQ(t.h.numSuspectOrDown(), 0u);
}

TEST(LinkHealth, SuspectThenProbeTimeoutTakesTheLinkDown)
{
    HealthHarness t;
    t.blame();
    t.blame();
    EXPECT_EQ(t.h.state(0, 1), LinkState::Suspect);
    ASSERT_EQ(t.probes.size(), 1u);

    // Never answer the probe: the timeout fires, the link goes down,
    // and re-probes start (so the queue never drains on its own).
    ASSERT_TRUE(t.stepUntil(
        [&] { return t.h.state(0, 1) == LinkState::Down; }));
    EXPECT_GE(t.probeFailures, 1u);
    EXPECT_EQ(t.h.numSuspectOrDown(), 1u);
    EXPECT_NE(t.h.dump().find("down"), std::string::npos);

    // A re-probe goes out; answering it cleanly recovers the link.
    ASSERT_TRUE(t.stepUntil([&] { return t.probes.size() >= 2; }));
    t.h.probeResult(0, 1, t.probes.back().id, /*clean=*/true);
    EXPECT_EQ(t.h.state(0, 1), LinkState::Up);
    while (t.eq.step()) {
    } // Recovery cancels the probe cycle: the queue drains.

    ASSERT_EQ(t.transitions.size(), 3u);
    EXPECT_EQ(std::get<3>(t.transitions[0]), LinkState::Suspect);
    EXPECT_EQ(std::get<3>(t.transitions[1]), LinkState::Down);
    EXPECT_EQ(std::get<3>(t.transitions[2]), LinkState::Up);
}

TEST(LinkHealth, CleanProbeRecoversSuspectAndResetsTheBlameCount)
{
    HealthHarness t;
    t.blame();
    t.blame();
    ASSERT_EQ(t.probes.size(), 1u);
    t.h.probeResult(0, 1, t.probes[0].id, /*clean=*/true);
    EXPECT_EQ(t.h.state(0, 1), LinkState::Up);

    // consecFails was reset: one more blame is below the threshold.
    t.blame();
    EXPECT_EQ(t.h.state(0, 1), LinkState::Up);
    t.blame();
    EXPECT_EQ(t.h.state(0, 1), LinkState::Suspect);
    ASSERT_EQ(t.probes.size(), 2u);
    t.h.probeResult(0, 1, t.probes[1].id, /*clean=*/true);
    while (t.eq.step()) {
    }
}

TEST(LinkHealth, AckedTrafficResetsTheBlameCount)
{
    HealthHarness t;
    // Blames interleaved with successes never reach the threshold:
    // "consecutive" failures really are consecutive, not cumulative
    // over the whole run.
    for (int i = 0; i < 8; ++i) {
        t.blame();
        t.h.noteSuccess({{0, 1}});
    }
    EXPECT_EQ(t.h.state(0, 1), LinkState::Up);
    EXPECT_TRUE(t.transitions.empty());

    t.blame();
    t.blame();
    EXPECT_EQ(t.h.state(0, 1), LinkState::Suspect);
    // Once the edge leaves Up the probe cycle owns it: a success
    // report must not mask the pending probe verdict.
    t.h.noteSuccess({{0, 1}});
    EXPECT_EQ(t.h.state(0, 1), LinkState::Suspect);
    // Unknown edges are ignored.
    t.h.noteSuccess({{3, 4}});
}

TEST(LinkHealth, StaleProbeIdsAreIgnored)
{
    HealthHarness t;
    t.blame();
    t.blame();
    ASSERT_EQ(t.probes.size(), 1u);
    t.h.probeResult(0, 1, t.probes[0].id + 1234, /*clean=*/true);
    EXPECT_EQ(t.h.state(0, 1), LinkState::Suspect); // not recovered
    t.h.probeResult(0, 1, t.probes[0].id, /*clean=*/true);
    EXPECT_EQ(t.h.state(0, 1), LinkState::Up);
}

TEST(LinkHealth, CorruptedProbeCountsAsFailure)
{
    HealthHarness t;
    t.blame();
    t.blame();
    ASSERT_EQ(t.probes.size(), 1u);
    t.h.probeResult(0, 1, t.probes[0].id, /*clean=*/false);
    EXPECT_EQ(t.h.state(0, 1), LinkState::Down);
    EXPECT_EQ(t.probeFailures, 1u);
}

TEST(LinkHealth, BlamingADownEdgeDoesNotRetransition)
{
    HealthHarness t;
    t.blame();
    t.blame();
    t.h.probeResult(0, 1, t.probes[0].id, /*clean=*/false);
    ASSERT_EQ(t.h.state(0, 1), LinkState::Down);
    const auto n = t.transitions.size();
    t.blame();
    t.blame();
    t.blame();
    EXPECT_EQ(t.transitions.size(), n);
    EXPECT_EQ(t.h.state(0, 1), LinkState::Down);
}

// ---------------------------------------------------------------------
// Topology route-around.
// ---------------------------------------------------------------------

TEST(RouteAround, RingTakesTheOtherDirection)
{
    noc::TopologyGraph g(Topology::Ring, 4);
    EXPECT_EQ(g.nextHop(0, 1), 1);
    EXPECT_EQ(g.distance(0, 1), 1u);

    g.setEdgeDown(0, 1, true);
    EXPECT_TRUE(g.edgeDown(0, 1));
    EXPECT_FALSE(g.edgeDown(1, 0)); // directed mask
    EXPECT_EQ(g.numDownEdges(), 1u);

    // 0 -> 1 routes the long way round; the reverse is untouched.
    EXPECT_EQ(g.nextHop(0, 1), 3);
    EXPECT_EQ(g.distance(0, 1), 3u);
    EXPECT_TRUE(g.reachable(0, 1));
    EXPECT_EQ(g.nextHop(1, 0), 0);
    EXPECT_EQ(g.distance(1, 0), 1u);

    g.setEdgeDown(0, 1, false);
    EXPECT_EQ(g.numDownEdges(), 0u);
    EXPECT_EQ(g.nextHop(0, 1), 1);
    EXPECT_EQ(g.distance(0, 1), 1u);
}

TEST(RouteAround, HalfRingCutDisconnectsInsteadOfPanicking)
{
    noc::TopologyGraph g(Topology::HalfRing, 4); // chain 0-1-2-3
    g.setEdgeDown(1, 2, true);

    EXPECT_FALSE(g.reachable(1, 2));
    EXPECT_EQ(g.nextHop(1, 2), -1);
    EXPECT_EQ(g.distance(1, 2), noc::TopologyGraph::unreachable);
    EXPECT_FALSE(g.reachable(0, 3)); // 0 -> 3 needed 1 -> 2

    // The reverse direction still works.
    EXPECT_TRUE(g.reachable(2, 1));
    EXPECT_TRUE(g.reachable(3, 0));
    EXPECT_EQ(g.nextHop(2, 1), 1);

    g.setEdgeDown(1, 2, false);
    EXPECT_TRUE(g.reachable(0, 3));
    EXPECT_EQ(g.distance(0, 3), 3u);
}

TEST(RouteAround, BroadcastTreeSkipsUnreachableNodes)
{
    noc::TopologyGraph g(Topology::HalfRing, 4);
    g.setEdgeDown(1, 2, true);

    // Collect the nodes the tree rooted at 0 actually reaches.
    std::vector<int> reached{0};
    for (std::size_t i = 0; i < reached.size(); ++i)
        for (int c : g.broadcastChildren(0, reached[i]))
            reached.push_back(c);
    std::sort(reached.begin(), reached.end());
    EXPECT_EQ(reached, (std::vector<int>{0, 1}));
}

TEST(RouteAround, MeshFallsBackFromXyRoutingToBfs)
{
    noc::TopologyGraph g(Topology::Mesh, 4); // 2x2 grid
    const int xy_hop = g.nextHop(0, 3);
    g.setEdgeDown(0, xy_hop, true);
    // The XY walk would use the dead link; BFS routes around it.
    const int hop = g.nextHop(0, 3);
    EXPECT_NE(hop, xy_hop);
    EXPECT_NE(hop, -1);
    EXPECT_EQ(g.distance(0, 3), 2u);
    g.setEdgeDown(0, xy_hop, false);
    EXPECT_EQ(g.nextHop(0, 3), xy_hop);
}

// ---------------------------------------------------------------------
// Rate-limited warnings.
// ---------------------------------------------------------------------

TEST(WarnRateLimit, CountsEveryCallAndKeysAreIndependent)
{
    resetWarnCounts();
    EXPECT_EQ(warnCount("robustness-test-a"), 0u);
    for (int i = 0; i < 10; ++i)
        warnRateLimited("robustness-test-a", 4, "warn %d", i);
    DIMMLINK_WARN_ONCE("robustness-test-b", "only printed once");
    DIMMLINK_WARN_ONCE("robustness-test-b", "only printed once");
    EXPECT_EQ(warnCount("robustness-test-a"), 10u);
    EXPECT_EQ(warnCount("robustness-test-b"), 2u);
    resetWarnCounts();
    EXPECT_EQ(warnCount("robustness-test-a"), 0u);
}

// ---------------------------------------------------------------------
// Exhaustion fallback policies on the retry sender.
// ---------------------------------------------------------------------

TEST(ExhaustFallback, DropWarnsAndReleasesTheWindow)
{
    EventQueue eq;
    stats::Registry reg;
    proto::RetrySender sender(eq, 100, 1, reg.group("dll"), 8,
                              proto::ExhaustFallback::Drop);
    resetWarnCounts();
    Packet p = proto::Codec::makeWriteReq(0, 1, 0x40, 1, 64);
    bool acked = false;
    sender.send(
        p, [](const Packet &) { /* wire eats every transmission */ },
        [&acked] { acked = true; });
    while (eq.step()) {
    }
    EXPECT_FALSE(acked);
    EXPECT_EQ(sender.inFlight(), 0u); // entry retired, window open
    EXPECT_GE(warnCount("dll-exhausted"), 1u);
    resetWarnCounts();
}

TEST(ExhaustFallbackDeathTest, PanicPreservesFailStop)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            stats::Registry reg;
            proto::RetrySender sender(eq, 100, 1, reg.group("dll"), 8,
                                      proto::ExhaustFallback::Panic);
            Packet p = proto::Codec::makeWriteReq(0, 1, 0x40, 1, 64);
            sender.send(p, [](const Packet &) {}, [] {});
            while (eq.step()) {
            }
        },
        "failed permanently");
}

// ---------------------------------------------------------------------
// Receiver stream resync: the exhaustion policy retires a sequence
// the receiver still expects, and skipTo() moves the stream past the
// permanent gap.
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
wireWithSeq(std::uint8_t src, std::uint8_t dst, std::uint16_t seq)
{
    Packet p = proto::Codec::makeWriteReq(src, dst, 0x40,
                                          seq & 0x3f, 32);
    p.dll = seq;
    return proto::encode(p);
}

TEST(ReceiverResync, SkipReleasesHeldPacketsAndReopensTheStream)
{
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("dll"), 8);
    std::vector<Packet> out;
    std::optional<Packet> ack;

    // Sequences 1 and 3 arrive ahead of the gap at 0 and are held.
    rx.onArrive(wireWithSeq(1, 2, 1), false, out, ack);
    rx.onArrive(wireWithSeq(1, 2, 3), false, out, ack);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(rx.bufferedPackets(), 2u);

    // The sender retired 0 and 2 (exhaustion); skipping to 2 must
    // release the whole held run, in order.
    rx.skipTo(1, 0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dll & 0xffff, 1u);
    out.clear();
    rx.skipTo(1, 2, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dll & 0xffff, 3u);
    EXPECT_EQ(rx.bufferedPackets(), 0u);

    // The stream continues in order right after the resync point.
    out.clear();
    rx.onArrive(wireWithSeq(1, 2, 4), false, out, ack);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dll & 0xffff, 4u);
}

TEST(ReceiverResync, StaleSkipsAreNoOps)
{
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("dll"), 8);
    std::vector<Packet> out;
    std::optional<Packet> ack;

    rx.onArrive(wireWithSeq(1, 2, 0), false, out, ack);
    ASSERT_EQ(out.size(), 1u);
    out.clear();

    // Skipping an already-delivered sequence (a duplicated or late
    // resync notification) must not rewind or re-deliver anything.
    rx.skipTo(1, 0, out);
    EXPECT_TRUE(out.empty());
    rx.onArrive(wireWithSeq(1, 2, 1), false, out, ack);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dll & 0xffff, 1u);
}

TEST(ReceiverResync, SkipIsPerSourceStream)
{
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("dll"), 8);
    std::vector<Packet> out;
    std::optional<Packet> ack;

    rx.skipTo(1, 3, out); // source 1 jumps to 4 ...
    rx.onArrive(wireWithSeq(5, 2, 0), false, out, ack);
    ASSERT_EQ(out.size(), 1u); // ... source 5 still starts at 0
    EXPECT_EQ(out[0].src, 5);
}

TEST(ReceiverResync, LateCopyOfASkippedSequenceSurfacesAsStale)
{
    stats::Registry reg;
    proto::RetryReceiver rx(reg.group("dll"), 8);
    std::vector<Packet> out;
    std::optional<Packet> ack;

    // The skip jumps over sequence 1 while its only copy is still in
    // flight (it was never exhausted, the resync for a later
    // sequence just overtook it).
    rx.skipTo(1, 2, out);
    EXPECT_TRUE(out.empty());

    // Its arrival classifies behind the window: re-ACKed so the
    // sender retires it, not re-delivered, but surfaced through the
    // stale list so the caller can fire the pending completion.
    std::vector<Packet> stale;
    rx.onArrive(wireWithSeq(1, 2, 1), false, out, ack, &stale);
    EXPECT_TRUE(out.empty());
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0].dll & 0xffff, 1u);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->cmd, proto::DlCommand::DllAck);
}

// ---------------------------------------------------------------------
// Hang watchdog.
// ---------------------------------------------------------------------

TEST(WatchdogDeathTest, FiresWhenNothingMoves)
{
    EXPECT_EXIT(
        {
            EventQueue eq;
            Watchdog wd(eq, 1000);
            double counter = 0;
            wd.addProgress("stalled", [&counter] { return counter; });
            wd.addDumper([] { return std::string("dump-marker\n"); });
            wd.arm();
            while (eq.step()) {
            }
        },
        testing::ExitedWithCode(1), "hang watchdog");
}

TEST(WatchdogDeathTest, FiringMessageCarriesTheDiagnostics)
{
    EXPECT_EXIT(
        {
            EventQueue eq;
            Watchdog wd(eq, 1000);
            wd.addProgress("stalled", [] { return 7.0; });
            wd.addDumper([] { return std::string("dump-marker\n"); });
            wd.arm();
            while (eq.step()) {
            }
        },
        testing::ExitedWithCode(1), "dump-marker");
}

TEST(WatchdogDeathTest, RejectsZeroStall)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            Watchdog wd(eq, 0);
        },
        "stallPs");
}

TEST(Watchdog, StaysQuietWhileAnyCounterMoves)
{
    EventQueue eq;
    Watchdog wd(eq, 1000);
    double counter = 0;
    wd.addProgress("moving", [&counter] { return counter; });

    // A heartbeat that outlives several stall intervals, then stops;
    // disarm before the beat dies so the final idle gap is legal.
    std::function<void(int)> beat = [&](int left) {
        ++counter;
        if (left > 0)
            eq.scheduleIn(400, [&beat, left] { beat(left - 1); });
        else
            wd.disarm();
    };
    wd.arm();
    eq.scheduleIn(400, [&beat] { beat(12); });
    while (eq.step()) {
    }
    EXPECT_FALSE(wd.armed());
    EXPECT_GT(counter, 10.0);
    EXPECT_GT(eq.now(), 4000u); // several check intervals elapsed
}

TEST(Watchdog, DiagnosticsListCountersAndDumpers)
{
    EventQueue eq;
    Watchdog wd(eq, 500);
    wd.addProgress("myCounter", [] { return 3.0; });
    wd.addDumper([] { return std::string("extra-state\n"); });
    const std::string d = wd.diagnostics();
    EXPECT_NE(d.find("myCounter"), std::string::npos);
    EXPECT_NE(d.find("extra-state"), std::string::npos);
    EXPECT_EQ(wd.stallPs(), 500u);
    EXPECT_FALSE(wd.armed());
}

TEST(Watchdog, SystemBuildsOneOnlyWhenConfigured)
{
    auto cfg = SystemConfig::preset("4D-2C");
    {
        System sys(cfg);
        EXPECT_EQ(sys.watchdog(), nullptr);
        EXPECT_NE(sys.hangDiagnostics().find("queue:"),
                  std::string::npos);
    }
    cfg.watchdog.stallPs = 1000000;
    {
        System sys(cfg);
        ASSERT_NE(sys.watchdog(), nullptr);
        EXPECT_EQ(sys.watchdog()->stallPs(), 1000000u);
        EXPECT_FALSE(sys.watchdog()->armed());
        sys.enterNmpMode();
        EXPECT_TRUE(sys.watchdog()->armed());
        sys.exitNmpMode();
        EXPECT_FALSE(sys.watchdog()->armed());
    }
}

// ---------------------------------------------------------------------
// Decoder and receiver fuzzing (deterministic, seeded corpus).
// ---------------------------------------------------------------------

TEST(Fuzz, DecodeSurvivesRandomImages)
{
    Rng rng(0xfeedf00d);
    Packet out;
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::uint8_t> wire(rng.below(600));
        for (auto &b : wire)
            b = static_cast<std::uint8_t>(rng.below(256));
        decode(wire, out); // must neither crash nor read OOB
    }
    SUCCEED();
}

TEST(Fuzz, DecodeRejectsEveryTruncation)
{
    const Packet p = proto::Codec::makeWriteReq(2, 5, 0x1234, 9, 64);
    const auto wire = proto::encode(p);
    Packet out;
    ASSERT_TRUE(proto::decode(wire, out));
    for (std::size_t len = 0; len < wire.size(); ++len) {
        std::vector<std::uint8_t> cut(wire.begin(),
                                      wire.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        EXPECT_FALSE(proto::decode(cut, out)) << "length " << len;
    }
}

TEST(Fuzz, DecodeRejectsEverySingleBitFlip)
{
    // The CRC covers header, payload, and the DLL word, so any single
    // flip anywhere in the image must fail validation.
    const Packet p = proto::Codec::makeWriteReq(1, 3, 0x40, 4, 32);
    auto wire = proto::encode(p);
    Packet out;
    ASSERT_TRUE(proto::decode(wire, out));
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(proto::decode(wire, out)) << "bit " << bit;
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_TRUE(proto::decode(wire, out)); // restored image still good
}

TEST(Fuzz, ControllerReceivePathSurvivesGarbage)
{
    EventQueue eq;
    stats::Registry reg;
    DlController ctl(eq, "fuzz.dl", 0, 1000, 2, reg);
    Rng rng(0xc0ffee);

    unsigned controls = 0, delivered = 0;
    const auto send_control = [&controls](const Packet &) {
        ++controls;
    };
    const auto deliver = [&delivered](Packet) { ++delivered; };

    // Pure noise, then damaged variants of a valid image.
    for (int i = 0; i < 1500; ++i) {
        std::vector<std::uint8_t> wire(rng.below(400));
        for (auto &b : wire)
            b = static_cast<std::uint8_t>(rng.below(256));
        ctl.onWireArrive(wire, /*corrupted=*/(i & 1) != 0,
                         send_control, deliver);
    }
    const auto valid =
        proto::encode(proto::Codec::makeWriteReq(1, 0, 0x80, 2, 48));
    for (int i = 0; i < 500; ++i) {
        auto wire = valid;
        const auto bit = rng.below(wire.size() * 8);
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ctl.onWireArrive(wire, false, send_control, deliver);
    }
    while (eq.step()) {
    }
    EXPECT_EQ(delivered, 0u); // nothing valid ever arrived
    EXPECT_EQ(ctl.receiverBuffered(), 0u);
}

// ---------------------------------------------------------------------
// Config parser fuzzing.
// ---------------------------------------------------------------------

TEST(JsonFuzz, ValidDocumentParses)
{
    const auto entries = json::parseFlat(
        "{ \"a\": 1, \"s\": \"x\", \"b\": { \"c\": true } }", "test");
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].key, "a");
    EXPECT_EQ(entries[1].value, "x");
    EXPECT_TRUE(entries[1].wasString);
    EXPECT_EQ(entries[2].key, "b.c");
}

TEST(JsonFuzzDeathTest, MalformedDocumentsExitGracefully)
{
    const char *bad[] = {
        "",
        "{",
        "}",
        "nonsense",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\": 1",
        "{\"a\": null}",
        "{\"a\": [1, 2]}",
        "{\"a\": 1 \"b\": 2}",
        "{a: 1}",
        "{\"a\": \"unterminated}",
        "{\"a\": {\"b\": 1}",
        "{\"a\": 1,}",
    };
    for (const char *doc : bad)
        EXPECT_EXIT(json::parseFlat(doc, "fuzz"),
                    testing::ExitedWithCode(1), "")
            << "doc: " << doc;
}

TEST(JsonFuzzDeathTest, EveryStrictPrefixOfAValidDocIsRejected)
{
    const std::string doc =
        "{\"link\": {\"gbps\": 25.0}, \"name\": \"x\"}";
    const auto full = json::parseFlat(doc, "test");
    ASSERT_EQ(full.size(), 2u);
    // Sample prefixes (a death test per byte would fork ~40 times).
    for (std::size_t len = 1; len < doc.size(); len += 5)
        EXPECT_EXIT(json::parseFlat(doc.substr(0, len), "fuzz"),
                    testing::ExitedWithCode(1), "")
            << "prefix length " << len;
}

TEST(ConfigDeathTest, RejectsUnknownExhaustPolicy)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.faults.onExhausted = "bogus";
    EXPECT_DEATH(cfg.validate(), "onExhausted");
}

TEST(Config, AcceptsAllExhaustPolicies)
{
    for (const char *p : {"failover", "drop", "panic"}) {
        auto cfg = SystemConfig::preset("4D-2C");
        cfg.faults.onExhausted = p;
        cfg.validate();
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// Off by default: recorded in the header, silent in the stats.
// ---------------------------------------------------------------------

TEST(Invisibility, RecoveryKeysAreInDescribe)
{
    const auto d = SystemConfig::preset("4D-2C").describe();
    EXPECT_NE(d.find("\"faults.suspectAfter\": 2"), std::string::npos);
    EXPECT_NE(d.find("\"faults.reprobeIntervalPs\": 20000000"),
              std::string::npos);
    EXPECT_NE(d.find("\"faults.onExhausted\": \"failover\""),
              std::string::npos);
    EXPECT_NE(d.find("\"watchdog.stallPs\": 0"), std::string::npos);
}

TEST(Invisibility, FaultFreeRunEmitsNoRecoveryStats)
{
    auto cfg = SystemConfig::preset("4D-2C");
    cfg.idcMethod = IdcMethod::DimmLink;
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 5;
    p.rounds = 1;
    auto wl = workloads::makeWorkload("bfs", p, sys.addressMap());
    Runner runner(sys, *wl);
    EXPECT_TRUE(runner.run().verified);

    // The recovery counters exist from construction and stay at
    // zero; the default dump omits zero values, so none is printed.
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os);
    const std::string json = os.str();
    for (const char *stat :
         {"dllFailovers", "failoverBytes", "dllStreamResyncs",
          "hostReroutes", "proxyNotifyFallbacks", "linkSuspectEvents",
          "linkDownEvents", "linkRecoveredEvents", "healthProbesSent",
          "healthProbesFailed"}) {
        const std::string dotted = std::string("fabric.dl.") + stat;
        ASSERT_TRUE(sys.stats().hasScalar(dotted)) << dotted;
        EXPECT_EQ(sys.stats().scalar(dotted), 0.0) << dotted;
        EXPECT_EQ(json.find(stat), std::string::npos) << stat;
    }
    const std::string router = "fabric.dl.group0.router0";
    ASSERT_TRUE(sys.stats().hasScalar(router + ".droppedUnroutable"));
    EXPECT_EQ(sys.stats().scalar(router + ".droppedUnroutable"), 0.0);
    EXPECT_EQ(json.find("droppedUnroutable"), std::string::npos);
}

// ---------------------------------------------------------------------
// Whole-system degradation: a permanently stuck link.
// ---------------------------------------------------------------------

struct StuckResult
{
    bool verified = false;
    std::string json;
    Tick finalTick = 0;
    double failovers = 0, reroutes = 0, suspects = 0, downs = 0,
           recoveries = 0, failed = 0, resyncs = 0;
};

StuckResult
runStuck(const std::string &workload, std::uint64_t seed,
         const char *policy = "failover",
         Topology topo = Topology::HalfRing,
         Tick stuck_for_ps = 400000000000000ull,
         Tick reprobe_interval_ps = 0,
         const char *preset = "4D-2C")
{
    auto cfg = SystemConfig::preset(preset);
    cfg.idcMethod = IdcMethod::DimmLink;
    cfg.link.topology = topo;
    // One direction of the 1<->2 link is dead from tick 0; by default
    // for far longer than any kernel runs, so the retry budget must
    // exhaust and the recovery path carries the traffic. A finite
    // stuck_for_ps instead ends the outage mid-run and exercises the
    // post-recovery resumption of the DLL stream.
    cfg.faults.model = "stuck";
    cfg.faults.stuckAtPs = 0;
    cfg.faults.stuckForPs = stuck_for_ps;
    cfg.faults.stuckPeriodPs = 0;
    cfg.faults.linkFilter = "link1to2";
    cfg.faults.seed = seed;
    cfg.faults.onExhausted = policy;
    if (reprobe_interval_ps != 0)
        cfg.faults.reprobeIntervalPs = reprobe_interval_ps;
    // The watchdog rides along armed; a healthy degraded run must
    // never trip it.
    cfg.watchdog.stallPs = 1000000000;

    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    // gups is all-random remote traffic: nearly every reference hits
    // the dead link's retry budget, so even a small scale exercises
    // (and bounds the runtime of) the failover path.
    p.scale = workload == "gups" ? 4 : 6;
    p.rounds = 1;
    auto wl = workloads::makeWorkload(workload, p, sys.addressMap());
    Runner runner(sys, *wl);
    const RunResult r = runner.run();

    StuckResult out;
    out.verified = r.verified;
    auto s = [&sys](const char *n) {
        return sys.stats().sumScalar("fabric.dl", n);
    };
    out.failovers = s("dllFailovers");
    out.reroutes = s("hostReroutes");
    out.suspects = s("linkSuspectEvents");
    out.downs = s("linkDownEvents");
    out.recoveries = s("linkRecoveredEvents");
    out.failed = s("dllFailedTransfers");
    out.resyncs = s("dllStreamResyncs");
    std::ostringstream os;
    stats::dumpJson(sys.stats(), os, /*include_empty=*/true);
    out.json = os.str();
    out.finalTick = sys.queue().now();
    return out;
}

class StuckLinkDegradation
    : public testing::TestWithParam<const char *>
{
};

TEST_P(StuckLinkDegradation, CompletesAndVerifiesUnderFailover)
{
    const auto r = runStuck(GetParam(), 17);
    EXPECT_TRUE(r.verified) << GetParam();
    // The dead link was noticed...
    EXPECT_GT(r.suspects + r.downs, 0.0) << GetParam();
    // ...and its traffic reached the far side another way.
    EXPECT_GT(r.failovers + r.reroutes, 0.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Workloads, StuckLinkDegradation,
                         testing::Values("bfs", "gups", "kmeans", "nw",
                                         "pagerank", "spmv", "sssp",
                                         "tspow"));

TEST(StuckLink, DetectionTakesTheLinkDownAndFailsOver)
{
    const auto r = runStuck("bfs", 17);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.downs, 0.0);     // health machine reached Down
    EXPECT_GT(r.failovers, 0.0); // exhausted transfers re-sent
    EXPECT_GT(r.failed, 0.0);    // exhaustions were counted
    EXPECT_NE(r.json.find("healthProbesSent"), std::string::npos);
}

TEST(StuckLink, SameSeedRunsAreByteIdentical)
{
    const auto a = runStuck("bfs", 23);
    const auto b = runStuck("bfs", 23);
    ASSERT_FALSE(a.json.empty());
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_TRUE(a.verified);
}

// Regression (hang): on a multi-group system, DlFabric's proxy-notify
// note used to carry its inter-group forward job ONLY inside the
// note's deliver callback. The "stuck" fault model stalls packets (it
// delays arrival by the remaining outage, it does not drop them), so
// when the note was serialized into the stuck 1->2 link - upstream of
// group 0's proxy DIMM - before LinkHealth had marked the edge down,
// neither deliver nor onDropped ever fired within the run: the
// forward job was lost, the inter-group transaction never completed,
// and the BFS barrier deadlocked until the watchdog killed the run.
// 4D (single-group) configs never take the proxy-notify path, which
// is why the 4D tests above always passed. requestForward now arms a
// retry-deadline fallback (claimed-flag arbitrated against deliver /
// onDropped) whenever a fault model is configured, so a stalled note
// re-forwards via the healthy route instead of hanging.
TEST(StuckLink, MultiGroupProxyNotifySurvivesAStalledBridge)
{
    const auto r =
        runStuck("bfs", 7, "failover", Topology::HalfRing,
                 /*stuck_for_ps=*/400000000000000ull,
                 /*reprobe_interval_ps=*/0, /*preset=*/"8D-4C");
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.downs, 0.0);
    EXPECT_GT(r.failovers + r.reroutes, 0.0);
}

TEST(StuckLink, RingRoutesAroundWithoutDisconnecting)
{
    const auto r = runStuck("bfs", 17, "failover", Topology::Ring);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.downs, 0.0);
    // The ring stays connected with one directed edge down, so no
    // transfer is ever submitted to an unreachable destination.
    EXPECT_EQ(r.reroutes, 0.0);
}

TEST(StuckLink, DropPolicyStillCompletes)
{
    const auto r = runStuck("bfs", 17, "drop");
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.failed, 0.0);
    EXPECT_EQ(r.failovers, 0.0); // no failover under drop
}

TEST(StuckLinkDeathTest, PanicPolicyPreservesFailStop)
{
    EXPECT_DEATH(runStuck("bfs", 17, "panic"), "exhausted");
}

// ---------------------------------------------------------------------
// A finite outage: the link dies at tick 0 and comes back mid-run.
// On the HalfRing the masked edge disconnects 1 -> 2 outright, so
// packets queued toward it are dropped as unroutable and exhausted
// sequences are retired by the recovery policy while the receiver
// still expects them. Once the probe cycle re-admits the edge, the
// resumed DLL stream must not jam behind the retired gap (regression:
// post-recovery packets used to sit in the reorder buffer forever and
// the run died on the watchdog).
// ---------------------------------------------------------------------

TEST(FiniteOutage, HalfRingResumesTheStreamUnderFailover)
{
    const auto r = runStuck("bfs", 17, "failover", Topology::HalfRing,
                            /*stuck_for_ps=*/25000000,
                            /*reprobe_interval_ps=*/5000000);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.downs, 0.0);      // the outage really masked the edge
    EXPECT_GT(r.recoveries, 0.0); // and it really came back mid-run
    EXPECT_GT(r.failovers, 0.0);
    // Every retirement resynced the receiver past the dead sequence.
    EXPECT_GT(r.resyncs, 0.0);
}

TEST(FiniteOutage, HalfRingResumesTheStreamUnderDrop)
{
    const auto r = runStuck("bfs", 17, "drop", Topology::HalfRing,
                            25000000, 5000000);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.downs, 0.0);
    EXPECT_GT(r.recoveries, 0.0);
    EXPECT_GT(r.resyncs, 0.0);
}

TEST(FiniteOutage, SameSeedRunsAreByteIdentical)
{
    const auto a = runStuck("bfs", 23, "failover", Topology::HalfRing,
                            25000000, 5000000);
    const auto b = runStuck("bfs", 23, "failover", Topology::HalfRing,
                            25000000, 5000000);
    EXPECT_TRUE(a.verified);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.json, b.json);
}

TEST(StuckLink, ResultsMatchTheFaultFreeRun)
{
    // The recovery path must be invisible to the computation: the
    // verified flag already checks against the sequential reference,
    // but compare the two runs' workload outcome directly too.
    const auto faulty = runStuck("pagerank", 29);
    EXPECT_TRUE(faulty.verified);

    auto cfg = SystemConfig::preset("4D-2C");
    cfg.idcMethod = IdcMethod::DimmLink;
    System sys(cfg);
    workloads::WorkloadParams p;
    p.numThreads = cfg.numDimms * cfg.dimm.numCores;
    p.numDimms = cfg.numDimms;
    p.scale = 6;
    p.rounds = 1;
    auto wl = workloads::makeWorkload("pagerank", p, sys.addressMap());
    Runner runner(sys, *wl);
    EXPECT_TRUE(runner.run().verified);
}

} // namespace
} // namespace dimmlink
