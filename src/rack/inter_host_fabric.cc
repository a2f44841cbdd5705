#include "rack/inter_host_fabric.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace dimmlink {
namespace rack {

namespace {

/** Serialization time of @p bytes at @p gbps (1 GB/s = 1 byte/ns). */
Tick
transferPs(std::uint64_t bytes, double gbps)
{
    return static_cast<Tick>(static_cast<double>(bytes) * 1000.0 /
                             gbps);
}

/** A probe must outlive its own round trip over the rack, even at the
 * top of the 300-1500 ns latency sweep where the DLL's retryTimeoutPs
 * default would be too tight. */
Tick
probeTimeoutFor(const SystemConfig &cfg)
{
    return std::max<Tick>(cfg.link.retryTimeoutPs,
                          4 * (cfg.rack.latencyPs +
                               2 * cfg.rack.switchHopPs));
}

} // namespace

InterHostFabric::InterHostFabric(EventQueue &eq,
                                 const SystemConfig &cfg_,
                                 stats::Registry &reg)
    : eventq(eq),
      cfg(cfg_),
      health(eq, cfg_.faults.suspectAfter, cfg_.faults.reprobeIntervalPs,
             probeTimeoutFor(cfg_)),
      egressFreeAt(cfg_.rack.hosts, 0),
      ingressFreeAt(cfg_.rack.hosts, 0),
      statCrossings(reg.group("rack").scalar("crossings")),
      statForwardedBytes(reg.group("rack").scalar("forwardedBytes")),
      statPooledTransfers(reg.group("rack").scalar("pooledTransfers")),
      statPooledBytes(reg.group("rack").scalar("pooledBytes")),
      statReroutes(reg.group("rack").scalar("reroutes")),
      statPortDown(reg.group("rack").scalar("portDownEvents")),
      statPortRecovered(reg.group("rack").scalar("portRecoveredEvents")),
      statProbesSent(reg.group("rack").scalar("healthProbesSent")),
      statProbesFailed(reg.group("rack").scalar("healthProbesFailed")),
      statParked(reg.group("rack").scalar("parkedTransfers")),
      statCrossLatencyPs(reg.group("rack").distribution("crossLatencyPs"))
{
    for (unsigned h = 0; h < cfg.rack.hosts; ++h) {
        health.addEdge(static_cast<int>(h), kPort);
        health.addEdge(static_cast<int>(h), kGateway);
    }

    fault::LinkHealth::Callbacks cbs;
    // A rack probe is a CXL round trip: it vanishes when the far end
    // is inside its outage window (the timeout then declares it
    // failed), and answers clean after one RTT otherwise -- so a
    // finished outage heals through the ordinary reprobe cadence.
    cbs.sendProbe = [this](int a, int b, std::uint64_t id) {
        ++statProbesSent;
        const Edge e{a, b};
        if (dead(e))
            return;
        const Tick rtt =
            2 * (cfg.rack.latencyPs + 2 * cfg.rack.switchHopPs);
        eventq.scheduleIn(rtt, [this, a, b, id, e] {
            health.probeResult(a, b, id, !dead(e));
        });
    };
    cbs.onTransition = [this](int a, int b, fault::LinkState from,
                              fault::LinkState to) {
        if (to == fault::LinkState::Down) {
            ++statPortDown;
            if (availSink)
                availSink(static_cast<unsigned>(a), b == kGateway,
                          false);
        } else if (from == fault::LinkState::Down &&
                   to == fault::LinkState::Up) {
            ++statPortRecovered;
            if (availSink)
                availSink(static_cast<unsigned>(a), b == kGateway,
                          true);
        }
    };
    cbs.onProbeFailed = [this](int, int) { ++statProbesFailed; };
    health.setCallbacks(std::move(cbs));

    if (cfg.rack.hostDownAtPs != 0)
        scheduleOutage({static_cast<int>(cfg.rack.hostDownId), kPort},
                       cfg.rack.hostDownAtPs, cfg.rack.hostDownForPs);
    if (cfg.rack.nodeDownAtPs != 0)
        scheduleOutage({static_cast<int>(
                            cfg.hostOfGroup(cfg.rack.nodeDownId)),
                        kGateway},
                       cfg.rack.nodeDownAtPs, cfg.rack.nodeDownForPs);
}

Tick
InterHostFabric::parkUntil(const Edge &e1, const Edge &e2) const
{
    Tick until = 0;
    for (const Edge &e : {e1, e2}) {
        if (!dead(e))
            continue;
        const Tick end = outage.at(e).second;
        if (end == 0)
            return 0;
        until = std::max(until, end);
    }
    return until;
}

bool
InterHostFabric::dead(const Edge &e) const
{
    const auto it = outage.find(e);
    if (it == outage.end())
        return false;
    const Tick now = eventq.now();
    if (now < it->second.first)
        return false;
    return it->second.second == 0 || now < it->second.second;
}

void
InterHostFabric::scheduleOutage(Edge e, Tick at, Tick for_ps)
{
    outage[e] = {at, for_ps == 0 ? 0 : at + for_ps};
    eventq.schedule(at, [this, e] {
        // Blame the edge into the suspect state; the probe the health
        // machinery then sends runs into the outage window, times
        // out, and the edge goes down until a post-outage reprobe
        // answers clean.
        for (unsigned i = 0; i < cfg.faults.suspectAfter; ++i)
            health.noteExhausted({e});
    });
}

bool
InterHostFabric::hostUp(unsigned h) const
{
    return health.state(static_cast<int>(h), kPort) !=
           fault::LinkState::Down;
}

bool
InterHostFabric::bridgeUp(unsigned a, unsigned b) const
{
    return health.state(static_cast<int>(a), kGateway) !=
               fault::LinkState::Down &&
           health.state(static_cast<int>(b), kGateway) !=
               fault::LinkState::Down;
}

Tick
InterHostFabric::serialize(Tick &free_at, Tick not_before, double gbps,
                           std::uint64_t bytes)
{
    const Tick start = std::max(not_before, free_at);
    free_at = start + transferPs(bytes, gbps);
    return free_at;
}

void
InterHostFabric::crossing(unsigned a, unsigned b, std::uint64_t bytes,
                          EventCallback done)
{
    // A transfer admitted onto a dead port (the DlFabric reroutes
    // only after the health machinery detects the outage) is stuck
    // until the port recovers: park it and re-admit at outage end.
    // Permanent outages keep the pre-parking delivery semantics so
    // runs without the reliability layer never hang behind them.
    if (const Tick until = parkUntil({static_cast<int>(a), kPort},
                                     {static_cast<int>(b), kPort})) {
        ++statParked;
        eventq.schedule(until,
                        [this, a, b, bytes,
                         done = std::move(done)]() mutable {
                            crossing(a, b, bytes, std::move(done));
                        });
        return;
    }
    const Tick now = eventq.now();
    ++statCrossings;
    statForwardedBytes += static_cast<double>(bytes);
    const Tick out_end =
        serialize(egressFreeAt[a], now, cfg.rack.portGBps, bytes);
    const Tick arrive = out_end + cfg.rack.latencyPs +
                        hops(a, b) * cfg.rack.switchHopPs;
    const Tick done_at =
        serialize(ingressFreeAt[b], arrive, cfg.rack.portGBps, bytes);
    statCrossLatencyPs.sample(static_cast<double>(done_at - now));
    eventq.schedule(done_at, std::move(done));
}

void
InterHostFabric::pooledSend(unsigned a, unsigned b,
                            std::uint64_t bytes,
                            EventCallback done)
{
    // Same parking rule as crossing(), over the gateway attaches.
    if (const Tick until =
            parkUntil({static_cast<int>(a), kGateway},
                      {static_cast<int>(b), kGateway})) {
        ++statParked;
        eventq.schedule(until,
                        [this, a, b, bytes,
                         done = std::move(done)]() mutable {
                            pooledSend(a, b, bytes, std::move(done));
                        });
        return;
    }
    const Tick now = eventq.now();
    ++statPooledTransfers;
    statPooledBytes += static_cast<double>(bytes);
    // One DL-Bridge hop into the source gateway's lane and one out of
    // the destination gateway, then the cable itself; no host CPU and
    // no switch on the path.
    const Tick gateway =
        2 * (cfg.link.routerLatencyPs + cfg.link.wireLatencyPs);
    const Tick lane_end = serialize(laneFreeAt[{static_cast<int>(a),
                                                static_cast<int>(b)}],
                                    now, cfg.rack.pooledGBps, bytes);
    const Tick done_at = lane_end + cfg.rack.latencyPs + gateway;
    statCrossLatencyPs.sample(static_cast<double>(done_at - now));
    eventq.schedule(done_at, std::move(done));
}

std::string
InterHostFabric::debugDump() const
{
    if (health.numSuspectOrDown() == 0)
        return "";
    std::ostringstream os;
    os << "rack (" << kind() << ") health:\n" << health.dump();
    return os.str();
}

std::unique_ptr<InterHostFabric>
makeInterHostFabric(EventQueue &eq, const SystemConfig &cfg,
                    stats::Registry &reg)
{
    return InterHostFabricFactory::instance().create(cfg.rack.fabric,
                                                     eq, cfg, reg);
}

} // namespace rack
} // namespace dimmlink
