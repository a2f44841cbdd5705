#include "layer_drivers.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "common/stats.hh"
#include "dimm/cache.hh"
#include "dram/dram_controller.hh"
#include "noc/network.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
#include "proto/packet.hh"
#include "sim/event_queue.hh"

namespace perfbench {

using namespace dimmlink;

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("layer driver: ") + what);
}

/**
 * Event kernel: router-like churn. Agents reschedule themselves at a
 * random delay; every fourth firing also arms a timeout and cancels
 * the previous one, the arm/cancel pattern of the NoC and DLL models.
 */
double
queueNsPerEvent(std::uint64_t seed)
{
    constexpr unsigned agents = 256;
    constexpr std::uint64_t firings = 300000;
    EventQueue eq;
    Rng rng(seed);
    std::uint64_t fired = 0;
    struct Agent
    {
        EventQueue *eq;
        Rng *rng;
        std::uint64_t *fired;
        EventQueue::EventId timer = 0;

        void
        kick()
        {
            if (++*fired >= firings)
                return;
            if (*fired % 4 == 0) {
                eq->deschedule(timer);
                timer = eq->scheduleIn(100000, [] {});
            }
            eq->scheduleIn(1 + rng->below(4000), [this] { kick(); });
        }
    };
    std::vector<Agent> pool(agents, Agent{&eq, &rng, &fired});
    const auto t0 = Clock::now();
    for (Agent &a : pool)
        eq.scheduleIn(rng.below(4000), [&a] { a.kick(); });
    eq.run();
    const double ns = nsSince(t0);
    require(fired >= firings, "event queue drained early");
    return ns / static_cast<double>(eq.executed());
}

/**
 * DRAM controller: line requests with the workload's write fraction
 * and row locality (a row hit continues the previous stream), on the
 * workload's timing preset and scheduler. Shaped like LocalMc: one
 * single-rank controller per rank, lines interleaved across them and
 * handed over as rank-local addresses. At most one DIMM's MSHRs worth
 * of requests (cores x maxOutstanding) are in flight, the most the
 * NMP cores can have outstanding.
 */
double
dramNsPerRequest(const SystemConfig &cfg, const LayerMix &mix,
                 std::uint64_t seed)
{
    constexpr unsigned total = 8000;
    const unsigned ranks = cfg.dimm.numRanks;
    const unsigned window = cfg.dimm.numCores * cfg.dimm.maxOutstanding;
    const Addr line = cfg.dimm.lineBytes;
    EventQueue eq;
    stats::Registry reg;
    std::vector<std::unique_ptr<dram::DramController>> ctrls;
    for (unsigned r = 0; r < ranks; ++r) {
        const std::string name = "mc.rank" + std::to_string(r);
        ctrls.push_back(std::make_unique<dram::DramController>(
            eq, name, cfg.dramTiming(), /*num_ranks=*/1, line,
            reg.group(name), cfg.dramScheduler));
    }
    Rng rng(seed);
    Addr next = 0;
    struct Line
    {
        Addr addr;
        bool isWrite;
    };
    std::optional<Line> held; // next line, waiting for queue space
    unsigned submitted = 0, done = 0;
    auto pump = [&] {
        while (submitted < total && submitted - done < window) {
            if (!held) {
                if (!rng.chance(mix.dramRowHitRatio))
                    next = rng.below(Addr(1) << 30) & ~(line - 1);
                held = Line{next, rng.chance(mix.dramWriteFraction)};
                next += line;
            }
            const Addr idx = held->addr / line;
            dram::DramController &ctrl = *ctrls[idx % ranks];
            if (ctrl.full(held->isWrite))
                return;
            dram::DramRequest req;
            req.local = (idx / ranks) * line;
            req.isWrite = held->isWrite;
            req.done = [&done] { ++done; };
            require(ctrl.enqueue(std::move(req)),
                    "DRAM controller rejected a request it said fit");
            held.reset();
            ++submitted;
        }
    };
    const auto t0 = Clock::now();
    for (auto &ctrl : ctrls)
        ctrl->setUnblockCallback(pump);
    pump();
    while (done < total && eq.step())
        pump();
    const double ns = nsSince(t0);
    require(done == total, "DRAM requests lost");
    return ns / total;
}

/** NoC: uniform random traffic of 1..17-flit messages over one DL
 * group's topology and link parameters. */
double
nocNsPerFlit(const SystemConfig &cfg, std::uint64_t seed)
{
    constexpr unsigned total = 20000;
    EventQueue eq;
    stats::Registry reg;
    const unsigned nodes = std::max(2u, cfg.groupSize());
    noc::Network net(eq, "noc", cfg.link, nodes, reg);
    Rng rng(seed);
    unsigned delivered = 0;
    std::uint64_t flits = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < total; ++i) {
        noc::Message m;
        m.src = static_cast<int>(rng.below(nodes));
        m.dst = static_cast<int>((static_cast<unsigned>(m.src) + 1 +
                                  rng.below(nodes - 1)) % nodes);
        m.flits = 1 + static_cast<unsigned>(rng.below(17));
        m.deliver = [&delivered](int) { ++delivered; };
        flits += m.flits;
        while (!net.tryInject(m))
            require(eq.step(), "NoC injection never unblocked");
    }
    while (delivered < total && eq.step()) {
    }
    const double ns = nsSince(t0);
    require(delivered == total, "NoC messages lost");
    return ns / static_cast<double>(flits);
}

/** The three packet shapes of a remote read/write, round-robin. */
proto::Packet
samplePacket(unsigned i)
{
    const auto src = static_cast<std::uint8_t>(i % 8);
    const auto dst = static_cast<std::uint8_t>((i + 3) % 8);
    const Addr addr = Addr(i) * 64;
    const auto tag = static_cast<std::uint8_t>(i);
    switch (i % 3) {
      case 0:
        return proto::Codec::makeReadReq(src, dst, addr, tag);
      case 1:
        return proto::Codec::makeReadResp(src, dst, addr, tag, 64);
      default:
        return proto::Codec::makeWriteReq(src, dst, addr, tag, 64);
    }
}

/** Packet codec: encode plus CRC-checked decode. */
double
codecNsPerPacket()
{
    constexpr unsigned total = 60000;
    std::vector<proto::Packet> pkts;
    for (unsigned i = 0; i < 3; ++i)
        pkts.push_back(samplePacket(i));
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < total; ++i) {
        proto::Packet out;
        require(proto::decode(proto::encode(pkts[i % 3]), out),
                "clean packet failed its CRC");
        sink += out.payload.size();
    }
    const double ns = nsSince(t0);
    require(sink > 0, "codec produced no payload");
    return ns / total;
}

/**
 * DLL: selective-repeat sender and receiver over an in-memory wire
 * with one hop of latency, corrupting packets at the workload's bit
 * error rate (none unless faults.model=ber).
 */
double
dllNsPerPacket(const SystemConfig &cfg, std::uint64_t seed)
{
    constexpr unsigned total = 12000;
    EventQueue eq;
    stats::Registry reg;
    proto::RetrySender tx(eq, cfg.link.retryTimeoutPs,
                          cfg.link.maxRetries, reg.group("tx"),
                          cfg.link.retryWindow);
    proto::RetryReceiver rx(reg.group("rx"), cfg.link.retryWindow);
    const double ber = cfg.faults.model == "ber" ? cfg.faults.ber : 0;
    const Tick hop = cfg.link.routerLatencyPs + cfg.link.wireLatencyPs;
    Rng rng(seed);
    unsigned acked = 0;
    auto transmit = [&](const proto::Packet &p) {
        std::vector<std::uint8_t> wire = proto::encode(p);
        const double bits = 8.0 * static_cast<double>(wire.size());
        const bool bad = rng.chance(1 - std::pow(1 - ber, bits));
        eq.scheduleIn(hop, [&, wire = std::move(wire), bad] {
            std::vector<proto::Packet> out;
            std::optional<proto::Packet> ctrl;
            rx.onArrive(wire, bad, out, ctrl);
            if (ctrl)
                eq.scheduleIn(hop, [&tx, c = *ctrl] { tx.onControl(c); });
        });
    };
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < total; ++i) {
        // One link's stream: the receiver keeps sequence state per
        // source, the sender per destination.
        proto::Packet p = samplePacket(i);
        p.src = 0;
        p.dst = 1;
        tx.send(std::move(p), transmit, [&acked] { ++acked; });
    }
    eq.run();
    const double ns = nsSince(t0);
    require(acked == total, "DLL packets not acknowledged");
    return ns / total;
}

/** NMP L1: the workload's L1 geometry; a hit re-touches one of the
 * last 64 lines, a miss a fresh line of a 256 MB footprint. */
double
cacheNsPerAccess(const SystemConfig &cfg, const LayerMix &mix,
                 std::uint64_t seed)
{
    constexpr unsigned total = 1000000;
    stats::Registry reg;
    Cache l1("l1", cfg.dimm.l1Bytes, cfg.dimm.l1Assoc,
             cfg.dimm.lineBytes, reg.group("l1"));
    Rng rng(seed);
    std::vector<Addr> recent(64, 0);
    unsigned hits = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < total; ++i) {
        Addr a;
        if (rng.chance(mix.l1HitRatio)) {
            a = recent[rng.below(recent.size())];
        } else {
            a = rng.below(Addr(1) << 28) & ~Addr(cfg.dimm.lineBytes - 1);
            recent[i % recent.size()] = a;
        }
        hits += l1.access(a, rng.chance(0.25)).hit;
    }
    const double ns = nsSince(t0);
    require(hits > 0, "L1 never hit");
    return ns / total;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

LayerCosts
runLayerDrivers(const SystemConfig &cfg, const LayerMix &mix,
                std::uint64_t seed, unsigned reps, SpanRecorder &rec,
                std::uint64_t span_id)
{
    auto measure = [&](const char *layer, auto &&one) {
        const SpanRecorder::Scope span(
            &rec, std::string("layer.") + layer, span_id);
        std::vector<double> ns;
        for (unsigned r = 0; r < reps; ++r)
            ns.push_back(one(seed + r));
        return median(ns);
    };
    LayerCosts c;
    c.queueNsPerEvent = measure(
        "sim", [](std::uint64_t s) { return queueNsPerEvent(s); });
    c.dramNsPerRequest = measure("dram", [&](std::uint64_t s) {
        return dramNsPerRequest(cfg, mix, s);
    });
    c.nocNsPerFlit = measure(
        "noc", [&](std::uint64_t s) { return nocNsPerFlit(cfg, s); });
    c.codecNsPerPacket = measure(
        "proto.codec", [](std::uint64_t) { return codecNsPerPacket(); });
    c.dllNsPerPacket = measure("proto.dll", [&](std::uint64_t s) {
        return dllNsPerPacket(cfg, s);
    });
    c.cacheNsPerAccess = measure("dimm", [&](std::uint64_t s) {
        return cacheNsPerAccess(cfg, mix, s);
    });
    return c;
}

} // namespace perfbench
