#include "idc/dl_fabric.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/log.hh"
#include "obs/tracer.hh"
#include "rack/inter_host_fabric.hh"

namespace dimmlink {
namespace idc {

namespace {

/** Flits for one packet carrying @p bytes of payload. */
unsigned
flitsFor(std::uint64_t bytes)
{
    return 1 + static_cast<unsigned>(
                   (bytes + proto::flitBytes - 1) / proto::flitBytes);
}

/** Home slot hash of a DLL waiting-table key. */
std::size_t
dllHash(std::uint64_t key)
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
}

/** Polling targets: one proxy per group, or every DIMM. */
std::vector<DimmId>
pollTargets(const SystemConfig &cfg)
{
    std::vector<DimmId> v;
    const bool proxy = cfg.pollingMode == PollingMode::Proxy ||
                       cfg.pollingMode == PollingMode::ProxyInterrupt;
    if (proxy) {
        for (unsigned g = 0; g < cfg.numGroups(); ++g)
            v.push_back(static_cast<DimmId>(g * cfg.groupSize() +
                                            cfg.groupSize() / 2));
    } else {
        for (unsigned d = 0; d < cfg.numDimms; ++d)
            v.push_back(static_cast<DimmId>(d));
    }
    return v;
}

} // namespace

DlFabric::DlFabric(EventQueue &eq, const SystemConfig &cfg_,
                   std::vector<host::Channel *> channels_,
                   stats::Registry &reg)
    : Fabric(eq, cfg_, reg, "fabric.dl"),
      channels(channels_),
      path(eq, cfg_, channels_, pollTargets(cfg_), reg),
      statPacketsLink(reg.group("fabric.dl").scalar("packetsViaLink")),
      statPacketsHost(reg.group("fabric.dl").scalar("packetsViaHost")),
      statProxyNotifies(reg.group("fabric.dl").scalar("proxyNotifies")),
      statDllFailedTransfers(
          reg.group("fabric.dl").scalar("dllFailedTransfers")),
      statDllCtrlDropped(
          reg.group("fabric.dl").scalar("dllCtrlDropped")),
      statFailovers(reg.group("fabric.dl").scalar("dllFailovers")),
      statFailoverBytes(reg.group("fabric.dl").scalar("failoverBytes")),
      statStreamResyncs(
          reg.group("fabric.dl").scalar("dllStreamResyncs")),
      statHostReroutes(reg.group("fabric.dl").scalar("hostReroutes")),
      statProxyNotifyFallbacks(
          reg.group("fabric.dl").scalar("proxyNotifyFallbacks")),
      statHealthSuspect(
          reg.group("fabric.dl").scalar("linkSuspectEvents")),
      statHealthDown(reg.group("fabric.dl").scalar("linkDownEvents")),
      statHealthRecovered(
          reg.group("fabric.dl").scalar("linkRecoveredEvents")),
      statProbesSent(reg.group("fabric.dl").scalar("healthProbesSent")),
      statProbesFailed(
          reg.group("fabric.dl").scalar("healthProbesFailed"))
{
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatDll)) {
        tr = t;
        trk = t->track("fabric.dl", obs::CatDll);
        nmXact[static_cast<int>(Transaction::Type::RemoteRead)] =
            t->intern("remoteRead");
        nmXact[static_cast<int>(Transaction::Type::RemoteWrite)] =
            t->intern("remoteWrite");
        nmXact[static_cast<int>(Transaction::Type::Broadcast)] =
            t->intern("broadcast");
        nmXact[static_cast<int>(Transaction::Type::SyncMessage)] =
            t->intern("syncMsg");
        nmPacket = t->intern("packet");
        nmDllXfer = t->intern("dllXfer");
        nmDllRetry = t->intern("dllRetry");
        nmDllFailed = t->intern("dllFailed");
        nmLinkSuspect = t->intern("linkSuspect");
        nmLinkDown = t->intern("linkDown");
        nmLinkUp = t->intern("linkUp");
        nmFailover = t->intern("dllFailover");
        nmDllResync = t->intern("dllResync");
    }
    const unsigned gs = cfg.groupSize();
    const unsigned groups = cfg.numGroups();
    injectQ.resize(groups);
    for (unsigned g = 0; g < groups; ++g) {
        nets.push_back(std::make_unique<noc::Network>(
            eventq, "fabric.dl.group" + std::to_string(g), cfg.link, gs,
            reg, &cfg.faults));
        injectQ[g].resize(gs);
        for (unsigned node = 0; node < gs; ++node) {
            nets[g]->setRetryHandler(
                static_cast<int>(node), [this, g, node] {
                    drainInjectQueue(g, static_cast<int>(node));
                });
        }
    }
    // A configured fault model switches intra-group data onto the
    // reliable DLL transport, with one retry engine per DIMM.
    dllPath = cfg.faults.model != "none";
    if (dllPath) {
        if (cfg.faults.onExhausted == "drop")
            exhaustPolicy = ExhaustPolicy::Drop;
        else if (cfg.faults.onExhausted == "panic")
            exhaustPolicy = ExhaustPolicy::Panic;
        else
            exhaustPolicy = ExhaustPolicy::Failover;
        const auto sender_fb = exhaustPolicy == ExhaustPolicy::Panic
                                   ? proto::ExhaustFallback::Panic
                                   : proto::ExhaustFallback::Drop;
        for (unsigned d = 0; d < cfg.numDimms; ++d) {
            dllCtl.push_back(std::make_unique<DlController>(
                eventq,
                "fabric.dl.dllc" + std::to_string(d),
                static_cast<DimmId>(d), cfg.link.retryTimeoutPs,
                cfg.link.maxRetries, reg, cfg.link.retryWindow,
                sender_fb));
        }
        // One health tracker per group, probing over the physical
        // links and feeding route recomputation on down/up edges.
        for (unsigned g = 0; g < groups; ++g) {
            auto h = std::make_unique<fault::LinkHealth>(
                eventq, cfg.faults.suspectAfter,
                cfg.faults.reprobeIntervalPs,
                cfg.link.retryTimeoutPs);
            for (unsigned n = 0; n < gs; ++n)
                for (int nb :
                     nets[g]->graph().neighbors(static_cast<int>(n)))
                    h->addEdge(static_cast<int>(n), nb);
            fault::LinkHealth::Callbacks cbs;
            cbs.sendProbe = [this, g](int a, int b, std::uint64_t id) {
                sendHealthProbe(g, a, b, id);
            };
            cbs.onTransition = [this, g](int a, int b,
                                         fault::LinkState from,
                                         fault::LinkState to) {
                onHealthTransition(g, a, b, from, to);
            };
            cbs.onProbeFailed = [this](int, int) {
                ++statProbesFailed;
            };
            h->setCallbacks(std::move(cbs));
            health.push_back(std::move(h));
        }
    }
    // Multi-host pooling (docs/rack.md).
    if (cfg.rackEnabled()) {
        rackFabric = rack::makeInterHostFabric(eventq, cfg, reg);
        rackPooledPrimary = cfg.rack.idcMode == "pooled";
    }
}

DlFabric::~DlFabric() = default;

void
DlFabric::setHostAvailabilitySink(HostAvailabilitySink s)
{
    if (rackFabric)
        rackFabric->setAvailabilitySink(std::move(s));
}

void
DlFabric::sendHealthProbe(unsigned group, int a, int b,
                          std::uint64_t probe_id)
{
    noc::Link *l = nets[group]->linkBetween(a, b);
    if (!l)
        return; // Not adjacent; the probe timeout stands in.
    ++statProbesSent;
    // Probes bypass routing and credits on purpose: they test the
    // physical link itself, so a route-around must not make a dead
    // link look alive.
    noc::Message pm;
    pm.src = a;
    pm.dst = b;
    pm.flits = 1;
    pm.id = nextMsgId++;
    l->transmit(std::move(pm),
                [this, group, a, b, probe_id](noc::Message m) {
                    health[group]->probeResult(a, b, probe_id,
                                               !m.corrupted);
                });
}

void
DlFabric::onHealthTransition(unsigned group, int a, int b,
                             fault::LinkState from, fault::LinkState to)
{
    const std::uint64_t arg = (static_cast<std::uint64_t>(group) << 16) |
                              (static_cast<std::uint64_t>(a) << 8) |
                              static_cast<std::uint64_t>(b);
    switch (to) {
      case fault::LinkState::Suspect:
        ++statHealthSuspect;
        if (tr)
            tr->instant(trk, nmLinkSuspect, eventq.now(), arg);
        break;
      case fault::LinkState::Down:
        ++statHealthDown;
        nets[group]->setLinkDown(a, b, true);
        if (tr)
            tr->instant(trk, nmLinkDown, eventq.now(), arg);
        break;
      case fault::LinkState::Up:
        ++statHealthRecovered;
        if (from == fault::LinkState::Down)
            nets[group]->setLinkDown(a, b, false);
        if (tr)
            tr->instant(trk, nmLinkUp, eventq.now(), arg);
        break;
    }
}

void
DlFabric::routePath(unsigned group, int from, int to,
                    std::vector<std::pair<int, int>> &edges) const
{
    edges.clear();
    const auto &graph = nets[group]->graph();
    int cur = from;
    // Bounded by the node count: the tables are cycle-free.
    for (unsigned hop = 0; cur != to && hop < graph.numNodes(); ++hop) {
        const int next = graph.nextHop(cur, to);
        if (next == -1)
            break; // No live route (already routed around).
        edges.emplace_back(cur, next);
        cur = next;
    }
}

DimmId
DlFabric::proxyOf(unsigned group) const
{
    return static_cast<DimmId>(group * cfg.groupSize() +
                               cfg.groupSize() / 2);
}

std::uint64_t
DlFabric::wireBytesFor(std::uint64_t payload_bytes)
{
    std::uint64_t wire = 0;
    std::uint64_t left = payload_bytes;
    do {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(left, proto::maxPayloadBytes);
        wire += static_cast<std::uint64_t>(flitsFor(chunk)) *
                proto::flitBytes;
        left -= chunk;
    } while (left > 0);
    return wire;
}

Tick
DlFabric::packetizeDelay(unsigned flits) const
{
    const Tick period = periodFromMHz(cfg.dimm.coreFreqMHz);
    return (proto::Codec::controlCycles +
            proto::Codec::crcCyclesPerFlit * flits) *
           period;
}

Tick
DlFabric::decodeDelay(unsigned flits) const
{
    return packetizeDelay(flits);
}

double
DlFabric::distance(DimmId j, DimmId k) const
{
    if (j == k)
        return 0.0;
    if (groupIdx(j) == groupIdx(k)) {
        const unsigned d = nets[groupIdx(j)]->graph().distance(
            nodeIdx(j), nodeIdx(k));
        if (d != noc::TopologyGraph::unreachable)
            return static_cast<double>(d);
        // Link failures severed the pair: it pays the host-forwarding
        // cost below, like an inter-group access.
    }
    // Inter-group accesses pay polling discovery plus the host copy;
    // express that as equivalent link hops so the mapper can trade
    // the two off (profiled latencies in the paper play this role).
    const double per_hop = static_cast<double>(
        cfg.link.routerLatencyPs + cfg.link.wireLatencyPs);
    const double fwd = static_cast<double>(
        cfg.host.forwardLatencyPs + cfg.host.pollIntervalPs / 2);
    if (rackFabric && cfg.hostOf(j) != cfg.hostOf(k)) {
        // Cross-host pairs add the rack crossing -- or replace the
        // host path entirely when the pooled bridges are primary.
        const double rack_lat = static_cast<double>(
            cfg.rack.latencyPs +
            rackFabric->hops(cfg.hostOf(j), cfg.hostOf(k)) *
                cfg.rack.switchHopPs);
        if (rackPooledPrimary)
            return 2.0 + static_cast<double>(cfg.rack.latencyPs) /
                             per_hop;
        return (fwd + rack_lat) / per_hop;
    }
    return fwd / per_hop;
}

DlFabric::XferId
DlFabric::newXfer()
{
    XferId h;
    if (freeXferHead != ~0u) {
        h.idx = freeXferHead;
        freeXferHead = xfer(h).nextFree;
    } else {
        if (xferSlots % xferChunkSize == 0)
            xferChunks.push_back(std::make_unique<Xfer[]>(xferChunkSize));
        h.idx = xferSlots++;
    }
    Xfer &x = xfer(h);
    x.live = true;
    h.gen = x.gen;
    ++liveXfers;
    return h;
}

void
DlFabric::freeXfer(XferId h)
{
    Xfer &x = xfer(h);
    // Reset every field for the next user, keeping only the route's
    // capacity (so DLL exchanges stop allocating once warm) and a
    // bumped generation that turns outstanding handles stale.
    auto route = std::move(x.route);
    route.clear();
    const std::uint32_t gen = x.gen + 1;
    x = Xfer{};
    x.route = std::move(route);
    x.gen = gen;
    x.nextFree = freeXferHead;
    freeXferHead = h.idx;
    --liveXfers;
}

EventCallback
DlFabric::claim(XferId h)
{
    EventCallback next = std::move(xfer(h).next);
    freeXfer(h);
    return next;
}

void
DlFabric::partDone(XferId h)
{
    if (--xfer(h).remaining != 0)
        return;
    EventCallback next = claim(h);
    if (next)
        next();
}

noc::Message
DlFabric::packetOf(XferId h)
{
    const Xfer &x = xfer(h);
    noc::Message msg;
    msg.src = nodeIdx(x.src);
    msg.dst = x.broadcast ? 0 : nodeIdx(x.dst);
    msg.broadcast = x.broadcast;
    msg.flits = x.flits;
    msg.id = x.msgId;
    msg.wire = x.wire;
    return msg;
}

void
DlFabric::schedulePacket(XferId h, PacketKind kind)
{
    // NW-interface packetization before hitting the router.
    eventq.scheduleIn(packetizeDelay(xfer(h).flits),
                      [this, h, kind] { injectPacket(h, kind); },
                      EventPriority::Control);
}

void
DlFabric::injectPacket(XferId h, PacketKind kind)
{
    noc::Message msg = packetOf(h);
    switch (kind) {
      case PacketKind::Data:
        msg.deliver = [this, h](int) {
            // NW-interface CRC check + decode at the destination.
            eventq.scheduleIn(decodeDelay(xfer(h).flits),
                              [this, h] { packetDecoded(h); },
                              EventPriority::Control);
        };
        break;
      case PacketKind::Broadcast:
        msg.deliver = [this, h](int node) { broadcastEjected(h, node); };
        break;
      case PacketKind::DllData:
        msg.deliver = [this, h](int) {
            eventq.scheduleIn(decodeDelay(xfer(h).flits),
                              [this, h] { dllDecoded(h); },
                              EventPriority::Control);
        };
        // A dropped image is recovered by the sender's retry timeout;
        // only its record needs returning.
        msg.onDropped = [this, h] { freeXfer(h); };
        break;
      case PacketKind::DllControl:
        msg.deliver = [this, h](int) {
            eventq.scheduleIn(decodeDelay(xfer(h).flits),
                              [this, h] { controlDecoded(h); },
                              EventPriority::Control);
        };
        msg.onDropped = [this, h] { freeXfer(h); };
        break;
    }
    inject(groupIdx(xfer(h).src), std::move(msg));
}

void
DlFabric::inject(unsigned group, noc::Message msg)
{
    auto &q = injectQ[group][static_cast<std::size_t>(msg.src)];
    if (!q.empty() || !nets[group]->tryInject(std::move(msg)))
        q.push_back(std::move(msg));
}

void
DlFabric::drainInjectQueue(unsigned group, int node)
{
    auto &q = injectQ[group][static_cast<std::size_t>(node)];
    while (!q.empty()) {
        if (!nets[group]->tryInject(std::move(q.front())))
            return;
        q.pop_front();
    }
}

void
DlFabric::sendIntraGroup(DimmId s, DimmId d,
                         std::uint64_t payload_bytes,
                         EventCallback delivered)
{
    const unsigned group = groupIdx(s);
    if (group != groupIdx(d))
        panic("sendIntraGroup across groups (%u -> %u)", s, d);

    // Route-around: when link failures disconnected the pair on the
    // bridge, the transfer degrades to the host CPU-forwarding path
    // instead of feeding packets into a black hole.
    if (dllPath &&
        !nets[group]->graph().reachable(nodeIdx(s), nodeIdx(d))) {
        hostFallback(s, d, payload_bytes, std::move(delivered));
        return;
    }

    // Segment into <=256-byte packets; the last delivery completes
    // the transfer (paths are deterministic and FIFO, but count for
    // safety). A single packet completes the transfer itself.
    const std::uint64_t packets =
        payload_bytes == 0
            ? 1
            : (payload_bytes + proto::maxPayloadBytes - 1) /
                  proto::maxPayloadBytes;
    XferId fan;
    if (packets > 1) {
        fan = newXfer();
        xfer(fan).remaining = static_cast<std::uint32_t>(packets);
        xfer(fan).next = std::move(delivered);
    }

    std::uint64_t left = payload_bytes;
    do {
        const std::uint64_t c =
            std::min<std::uint64_t>(left, proto::maxPayloadBytes);
        left -= c;
        const unsigned flits = flitsFor(c);
        const XferId pk = newXfer();
        Xfer &x = xfer(pk);
        x.src = s;
        x.dst = d;
        x.flits = flits;
        x.remaining = 1;
        if (packets > 1)
            x.next = [this, fan] { partDone(fan); };
        else
            x.next = std::move(delivered);

        if (dllPath) {
            // Reliable transport: each chunk becomes a real DL packet
            // whose wire image crosses the (possibly faulty) bridge
            // under CRC + retry protection.
            proto::Packet pkt;
            pkt.src = static_cast<std::uint8_t>(s);
            pkt.dst = static_cast<std::uint8_t>(d);
            pkt.cmd = c > 0 ? proto::DlCommand::WriteReq
                            : proto::DlCommand::ReadReq;
            pkt.tag = dllCtl[s]->allocTag();
            pkt.payload.assign(static_cast<std::size_t>(c), 0);
            ++statPacketsLink;
            statBytesViaLink +=
                static_cast<double>(flits) * proto::flitBytes;
            if (tr) {
                x.aid = tr->nextAsyncId();
                tr->asyncBegin(trk, nmDllXfer, eventq.now(), x.aid);
            }
            sendDllPacket(s, d, std::move(pkt), [this, pk] {
                if (tr)
                    tr->asyncEnd(trk, nmDllXfer, eventq.now(),
                                 xfer(pk).aid);
                partDone(pk);
            });
            continue;
        }

        x.msgId = nextMsgId++;
        ++statPacketsLink;
        statBytesViaLink += static_cast<double>(flits) * proto::flitBytes;
        // Packet lifetime span: packetize begin -> decoded at d.
        if (tr) {
            x.aid = tr->nextAsyncId();
            tr->asyncBegin(trk, nmPacket, eventq.now(), x.aid);
        }
        schedulePacket(pk, PacketKind::Data);
    } while (left > 0);
}

void
DlFabric::packetDecoded(XferId h)
{
    if (tr)
        tr->asyncEnd(trk, nmPacket, eventq.now(), xfer(h).aid);
    partDone(h);
}

void
DlFabric::hostFallback(DimmId s, DimmId d, std::uint64_t payload_bytes,
                       EventCallback delivered)
{
    ++statHostReroutes;
    const auto wire = static_cast<unsigned>(wireBytesFor(payload_bytes));
    ++statPacketsHost;
    statBytesViaHost += wire;
    const XferId leg = newXfer();
    xfer(leg).src = s;
    xfer(leg).dst = d;
    xfer(leg).bytes = wire;
    xfer(leg).next = std::move(delivered);
    requestForward(s, [this, leg] { hostLegDiscovered(leg); });
}

void
DlFabric::hostLegDiscovered(XferId h)
{
    const DimmId s = xfer(h).src;
    const DimmId d = xfer(h).dst;
    const unsigned wire = xfer(h).bytes;
    path.forwarder().forward(s, d, wire, claim(h));
}

void
DlFabric::sendDllPacket(DimmId s, DimmId d, proto::Packet pkt,
                        EventCallback delivered)
{
    // The exchange record has two owners: the retry engine (until the
    // ACK or exhaustion) and the waiting claim (until the first
    // in-order delivery or failure). The sequence number is stamped
    // at admission (possibly after window backpressure), so the
    // waiting-table key is registered on the first transmission
    // rather than here. The route is captured at the same moment:
    // exhaustion must blame the path the transfer actually took, not
    // whatever the tables say after a recompute.
    const XferId h = newXfer();
    Xfer &x = xfer(h);
    x.src = s;
    x.dst = d;
    x.bytes = static_cast<std::uint32_t>(pkt.payload.size());
    x.remaining = 2;
    x.next = std::move(delivered);
    dllCtl[s]->sendReliable(
        std::move(pkt),
        [this, h](const proto::Packet &p, std::vector<std::uint8_t> wire) {
            dllTransmit(h, p, std::move(wire));
        },
        /*on_acked=*/[this, h] { dllAcked(h); },
        /*on_failed=*/[this, h] { dllFailed(h); });
}

void
DlFabric::dllTransmit(XferId h, const proto::Packet &p,
                      std::vector<std::uint8_t> wire)
{
    const DimmId s = xfer(h).src;
    const DimmId d = xfer(h).dst;
    if (!xfer(h).keyed) {
        Xfer &x = xfer(h);
        x.keyed = true;
        x.seq = static_cast<std::uint16_t>(p.dll & 0xffff);
        dllInsert(dllKey(p.src, p.dst, x.seq), h);
        routePath(groupIdx(s), nodeIdx(s), nodeIdx(d), x.route);
    } else if (tr) {
        // The retry engine re-invoked transmit: a timeout or NACK
        // retransmission of this sequence number.
        tr->instant(trk, nmDllRetry, eventq.now(), p.dll & 0xffff);
    }
    // The encoded image travels with the message; fault models flip
    // its real bits in flight. Each retry gets a freshly encoded
    // (clean) image.
    const XferId img = newXfer();
    Xfer &w = xfer(img);
    w.src = s;
    w.dst = d;
    w.flits = p.numFlits();
    w.msgId = nextMsgId++;
    w.wire = std::make_shared<std::vector<std::uint8_t>>(std::move(wire));
    schedulePacket(img, PacketKind::DllData);
}

void
DlFabric::dllAcked(XferId h)
{
    // An end-to-end ACK proves the route moved traffic: clear the
    // consecutive-failure blame on its links so unrelated exhaustions
    // cannot accumulate into a spurious Suspect over the whole run.
    const unsigned g = groupIdx(xfer(h).src);
    if (g < health.size() && health[g] && !xfer(h).route.empty())
        health[g]->noteSuccess(xfer(h).route);
    dllRelease(h);
}

void
DlFabric::dllRelease(XferId h)
{
    if (--xfer(h).remaining == 0)
        freeXfer(h);
}

void
DlFabric::dllFailed(XferId h)
{
    // Retry budget exhausted (e.g. a stuck link outliving the budget).
    // Blame the route the transfer was admitted on so the health
    // machinery can take the dead link out of the tables, then apply
    // the configured exhaustion policy.
    const DimmId s = xfer(h).src;
    const DimmId d = xfer(h).dst;
    const std::uint64_t payload = xfer(h).bytes;
    const bool keyed = xfer(h).keyed;
    const std::uint16_t seq = xfer(h).seq;
    ++statDllFailedTransfers;
    if (tr)
        tr->instant(trk, nmDllFailed, eventq.now(),
                    keyed ? seq : std::uint64_t{0});
    const unsigned g = groupIdx(s);
    if (g < health.size() && health[g]) {
        auto &route = xfer(h).route;
        if (route.empty())
            routePath(g, nodeIdx(s), nodeIdx(d), route);
        health[g]->noteExhausted(route);
    }
    if (!keyed) {
        // Never admitted (cannot happen: exhaustion follows
        // transmissions); nothing waits on it, so let go of both holds.
        xfer(h).next.reset();
        dllRelease(h);
        dllRelease(h);
        return;
    }
    const std::size_t slot = dllFind(dllKey(s, d, seq));
    if (slot == dllSlots.size()) {
        // Delivered earlier and only the ACKs kept dying: the retry
        // engine's hold is all that is left.
        dllRelease(h);
        return;
    }
    dllErase(slot);
    EventCallback cb = std::move(xfer(h).next);
    dllRelease(h); // The waiting claim...
    dllRelease(h); // ...and the retry engine.
    switch (exhaustPolicy) {
      case ExhaustPolicy::Panic:
        panic("DLL transfer %u -> %u (seq %u) exhausted its retry "
              "budget (faults.onExhausted=panic)",
              s, d, seq);
        break;
      case ExhaustPolicy::Drop: {
        // Complete the transfer unsent so the workload can terminate;
        // the stat records the loss. The payload is gone, but the
        // receiver must still move past the retired sequence or every
        // later packet on the stream jams behind the gap once the
        // link recovers — send a header-only resync note over the
        // host path.
        warnRateLimited("dl-fabric-drop", 64,
                        "DLL transfer %u -> %u dropped after retry "
                        "exhaustion (faults.onExhausted=drop)",
                        static_cast<unsigned>(s),
                        static_cast<unsigned>(d));
        if (cb)
            cb();
        const auto note = static_cast<unsigned>(wireBytesFor(0));
        ++statPacketsHost;
        statBytesViaHost += note;
        requestForward(s, [this, s, d, note, seq] {
            path.forwarder().forward(s, d, note, [this, s, d, seq] {
                dllStreamResync(s, d, seq);
            });
        });
        break;
      }
      case ExhaustPolicy::Failover: {
        // Re-submit the payload over the host CPU-forwarding path:
        // slower, but the bytes really arrive and the completion chain
        // stays intact. The forwarded image carries the DLL header, so
        // its arrival also resyncs the receiver's stream past the
        // retired sequence.
        ++statFailovers;
        const auto wire = static_cast<unsigned>(wireBytesFor(payload));
        statFailoverBytes += wire;
        ++statPacketsHost;
        statBytesViaHost += wire;
        if (tr)
            tr->instant(trk, nmFailover, eventq.now(), seq);
        requestForward(s, [this, s, d, wire, seq,
                           cb = std::move(cb)]() mutable {
            path.forwarder().forward(
                s, d, wire,
                [this, s, d, seq, cb = std::move(cb)]() mutable {
                    dllStreamResync(s, d, seq);
                    if (cb)
                        cb();
                });
        });
        break;
      }
    }
}

std::size_t
DlFabric::dllFind(std::uint64_t key) const
{
    if (dllSlots.empty())
        return 0;
    const std::size_t mask = dllSlots.size() - 1;
    for (std::size_t i = dllHash(key) & mask;; i = (i + 1) & mask) {
        if (dllSlots[i] == key)
            return i;
        if (dllSlots[i] == 0)
            return dllSlots.size();
    }
}

void
DlFabric::dllInsert(std::uint64_t key, XferId h)
{
    if ((dllWaiting + 1) * 2 > dllSlots.size()) {
        // Grow (and rehash) at half load; the table keeps its size
        // for the rest of the run.
        std::vector<std::uint64_t> keys(
            std::max<std::size_t>(16, dllSlots.size() * 2), 0);
        std::vector<XferId> vals(keys.size());
        keys.swap(dllSlots);
        vals.swap(dllSlotXfer);
        dllWaiting = 0;
        for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i] != 0)
                dllInsert(keys[i], vals[i]);
    }
    const std::size_t mask = dllSlots.size() - 1;
    std::size_t i = dllHash(key) & mask;
    while (dllSlots[i] != 0 && dllSlots[i] != key)
        i = (i + 1) & mask;
    if (dllSlots[i] == key) {
        // A sequence number reused while its previous exchange still
        // waited (only after a full 16-bit wrap): the newer exchange
        // takes the key and the older completion is dropped.
        const XferId old = dllSlotXfer[i];
        xfer(old).next.reset();
        dllRelease(old);
    } else {
        ++dllWaiting;
    }
    dllSlots[i] = key;
    dllSlotXfer[i] = h;
}

void
DlFabric::dllErase(std::size_t slot)
{
    // Backward-shift deletion keeps every probe chain gapless.
    const std::size_t mask = dllSlots.size() - 1;
    std::size_t hole = slot;
    for (std::size_t j = (hole + 1) & mask; dllSlots[j] != 0;
         j = (j + 1) & mask) {
        const std::size_t home = dllHash(dllSlots[j]) & mask;
        // Move j into the hole unless its home lies cyclically in
        // (hole, j].
        const bool stays = hole <= j ? (hole < home && home <= j)
                                     : (hole < home || home <= j);
        if (stays)
            continue;
        dllSlots[hole] = dllSlots[j];
        dllSlotXfer[hole] = dllSlotXfer[j];
        hole = j;
    }
    dllSlots[hole] = 0;
    --dllWaiting;
}

void
DlFabric::completeDllDelivery(const proto::Packet &p)
{
    const std::size_t slot = dllFind(
        dllKey(p.src, p.dst, static_cast<std::uint16_t>(p.dll & 0xffff)));
    if (slot == dllSlots.size())
        return; // Completed earlier (delivery, failover, or drop).
    const XferId h = dllSlotXfer[slot];
    dllErase(slot);
    EventCallback cb = std::move(xfer(h).next);
    dllRelease(h);
    if (cb)
        cb();
}

void
DlFabric::dllDecoded(XferId h)
{
    const DimmId d = xfer(h).dst;
    const auto wire = std::move(xfer(h).wire);
    freeXfer(h);
    dllReceive(d, *wire);
}

void
DlFabric::dllReceive(DimmId d, const std::vector<std::uint8_t> &wire)
{
    dllCtl[d]->onWireArrive(
        wire, /*corrupted=*/false,
        [this, d](const proto::Packet &ctrl) {
            sendDllControl(d, ctrl);
        },
        [this](proto::Packet p) { completeDllDelivery(p); },
        // A behind-window arrival is normally a filtered duplicate,
        // but after a stream resync it can be the only copy of a
        // sequence the skip jumped over while it was still in
        // flight: claim its completion if it is still waiting.
        [this](proto::Packet p) { completeDllDelivery(p); });
}

void
DlFabric::dllStreamResync(DimmId s, DimmId d, std::uint16_t seq)
{
    ++statStreamResyncs;
    if (tr)
        tr->instant(trk, nmDllResync, eventq.now(), seq);
    // The destination's controller learns the retired sequence from
    // the host-delivered DLL header and advances its reorder stream
    // past the permanent gap; held packets the skip releases complete
    // like normal in-order deliveries.
    dllCtl[d]->skipReceive(
        static_cast<std::uint8_t>(s), seq,
        [this](proto::Packet p) { completeDllDelivery(p); });
}

void
DlFabric::sendDllControl(DimmId from, const proto::Packet &ctrl)
{
    if (ctrl.dst >= cfg.numDimms ||
        groupIdx(static_cast<DimmId>(ctrl.dst)) != groupIdx(from)) {
        // Can only happen when a NACK was synthesized from an image
        // whose header bits (SRC) were themselves damaged: there is
        // no one to send it to. The sender's timeout recovers.
        ++statDllCtrlDropped;
        return;
    }
    // Control packets cross the same faulty links as data; a
    // corrupted ACK/NACK is dropped at the far end and the data
    // sender's retry timeout takes over.
    const XferId h = newXfer();
    Xfer &x = xfer(h);
    x.src = from;
    x.dst = static_cast<DimmId>(ctrl.dst);
    x.flits = 1;
    x.msgId = nextMsgId++;
    x.wire = std::make_shared<std::vector<std::uint8_t>>(
        proto::encode(ctrl));
    schedulePacket(h, PacketKind::DllControl);
}

void
DlFabric::controlDecoded(XferId h)
{
    const DimmId dst = xfer(h).dst;
    const auto wire = std::move(xfer(h).wire);
    freeXfer(h);
    proto::Packet c;
    if (!proto::decode(*wire, c)) {
        ++statDllCtrlDropped;
        return;
    }
    dllCtl[dst]->onControlArrive(c);
}

void
DlFabric::requestForward(DimmId src, EventCallback job)
{
    const bool proxy_mode =
        cfg.pollingMode == PollingMode::Proxy ||
        cfg.pollingMode == PollingMode::ProxyInterrupt;
    const DimmId proxy =
        proxy_mode ? proxyOf(groupIdx(src)) : src;
    if (!proxy_mode || proxy == src) {
        // The job runs once polling discovers the target.
        path.request(proxy, std::move(job));
        return;
    }
    // Register the request with the group's proxy over the link
    // network (a single-flit FwdReq packet), so the host only has to
    // poll one DIMM per group (Fig. 7).
    const unsigned g = groupIdx(src);
    if (dllPath &&
        !nets[g]->graph().reachable(nodeIdx(src), nodeIdx(proxy))) {
        forwardFallback(proxy, std::move(job));
        return;
    }
    ++statProxyNotifies;
    // Exactly one of {delivery, drop, deadline} may claim the job: the
    // first frees the note's record, and the others find its handle
    // stale.
    const XferId h = newXfer();
    xfer(h).dst = proxy;
    xfer(h).next = std::move(job);
    const std::uint64_t id = nextMsgId++;
    statBytesViaLink += proto::flitBytes;
    if (dllPath) {
        // A stuck link *delays* whatever is serialized into it
        // (noc::Link::transmit adds the outage to the arrival tick, it
        // never drops), so a notify note caught upstream of the proxy
        // before LinkHealth marks the link down would neither deliver
        // nor fire onDropped within the run — the forward job would be
        // lost and every transaction behind it would hang (on the 8D
        // two-group machine, group 0's proxy sits behind a stuck 1->2
        // edge). Bound the note's useful life by the same timeout that
        // protects DLL data packets; past it, the host discovers the
        // request on its own polling cadence.
        eventq.scheduleIn(packetizeDelay(1) + cfg.link.retryTimeoutPs,
                          [this, h] { noteLost(h); },
                          EventPriority::Control);
    }
    // The note's header rides in this closure, not the record: the
    // deadline may claim the record before the note is packetized.
    eventq.scheduleIn(
        packetizeDelay(1),
        [this, h, g, src, proxy, id] {
            noc::Message note;
            note.src = nodeIdx(src);
            note.dst = nodeIdx(proxy);
            note.flits = 1;
            note.id = id;
            note.deliver = [this, h](int) { noteDelivered(h); };
            note.onDropped = [this, h] { noteLost(h); };
            inject(g, std::move(note));
        },
        EventPriority::Control);
}

void
DlFabric::noteDelivered(XferId h)
{
    if (!current(h))
        return;
    const DimmId proxy = xfer(h).dst;
    path.request(proxy, claim(h));
}

void
DlFabric::noteLost(XferId h)
{
    if (!current(h))
        return;
    const DimmId proxy = xfer(h).dst;
    forwardFallback(proxy, claim(h));
}

void
DlFabric::forwardFallback(DimmId proxy, EventCallback job)
{
    // The proxy cannot be reached over the bridge (now, or by the time
    // the note would arrive): the host discovers the request on its
    // own polling cadence instead — modeled as one extra poll interval
    // of discovery latency.
    ++statProxyNotifyFallbacks;
    eventq.scheduleIn(cfg.host.pollIntervalPs,
                      [this, proxy, job = std::move(job)]() mutable {
                          path.request(proxy, std::move(job));
                      },
                      EventPriority::Control);
}

void
DlFabric::groupBroadcast(DimmId s, std::uint64_t bytes,
                         EventCallback all_delivered)
{
    const unsigned group = groupIdx(s);
    const unsigned gs = cfg.groupSize();
    if (gs == 1) {
        // A one-DIMM group has no one to send to.
        if (all_delivered)
            eventq.schedule(eventq.now(), std::move(all_delivered),
                            EventPriority::Delivery);
        return;
    }

    const XferId fan = newXfer();
    xfer(fan).next = std::move(all_delivered);

    if (dllPath) {
        // Under fault injection the spanning-tree broadcast gives way
        // to per-destination reliable unicasts: every copy is CRC +
        // retry protected, and copies for nodes the tables can no
        // longer reach degrade to host forwarding individually
        // (sendIntraGroup handles both).
        xfer(fan).remaining = gs - 1;
        for (unsigned node = 0; node < gs; ++node) {
            const DimmId dv = dimmAt(group, static_cast<int>(node));
            if (dv == s)
                continue;
            sendIntraGroup(s, dv, bytes, [this, fan] { partDone(fan); });
        }
        return;
    }

    // Every node (including the source's own router) ejects each
    // broadcast packet once.
    const std::uint64_t packets =
        bytes == 0 ? 1
                   : (bytes + proto::maxPayloadBytes - 1) /
                         proto::maxPayloadBytes;
    xfer(fan).remaining = static_cast<std::uint32_t>(packets * gs);
    std::uint64_t left = bytes;
    do {
        const std::uint64_t c =
            std::min<std::uint64_t>(left, proto::maxPayloadBytes);
        left -= c;
        const unsigned flits = flitsFor(c);
        const XferId pk = newXfer();
        Xfer &x = xfer(pk);
        x.src = s;
        x.broadcast = true;
        x.flits = flits;
        x.msgId = nextMsgId++;
        x.parent = fan;
        x.remaining = gs;
        ++statPacketsLink;
        statBytesViaLink += static_cast<double>(flits) * proto::flitBytes;
        schedulePacket(pk, PacketKind::Broadcast);
    } while (left > 0);
}

void
DlFabric::broadcastEjected(XferId h, int node)
{
    const XferId fan = xfer(h).parent;
    const unsigned flits = xfer(h).flits;
    const int src_node = nodeIdx(xfer(h).src);
    if (--xfer(h).remaining == 0)
        freeXfer(h);
    if (node == src_node) {
        // The source's local copy needs no decode.
        partDone(fan);
        return;
    }
    eventq.scheduleIn(decodeDelay(flits), [this, fan] { partDone(fan); },
                      EventPriority::Control);
}

void
DlFabric::hostPathSend(DimmId s, DimmId d,
                       std::uint64_t payload_bytes,
                       EventCallback done)
{
    const auto wire = static_cast<unsigned>(wireBytesFor(payload_bytes));
    const bool cross_host = rackFabric && cfg.hostOf(s) != cfg.hostOf(d);
    if (cross_host) {
        // A transfer whose primary route lost an endpoint fails over
        // to the other one; with both ends down the pooled lane is
        // taken regardless (the cables physically exist, and the
        // simulation must terminate).
        const unsigned hs = cfg.hostOf(s);
        const unsigned hd = cfg.hostOf(d);
        bool pooled = rackPooledPrimary;
        if (pooled && !rackFabric->bridgeUp(hs, hd) &&
            rackFabric->hostUp(hs) && rackFabric->hostUp(hd)) {
            pooled = false;
            rackFabric->noteReroute();
        } else if (!pooled &&
                   !(rackFabric->hostUp(hs) && rackFabric->hostUp(hd))) {
            pooled = true;
            rackFabric->noteReroute();
        }
        if (pooled) {
            // The bridge lane is DIMM-Link wire: count it with the
            // link traffic, not the host path.
            ++statPacketsLink;
            statBytesViaLink += wire;
            rackFabric->pooledSend(hs, hd, wire, std::move(done));
            return;
        }
    }
    ++statPacketsHost;
    statBytesViaHost += wire;
    const XferId leg = newXfer();
    xfer(leg).src = s;
    xfer(leg).dst = d;
    xfer(leg).bytes = wire;
    xfer(leg).next = std::move(done);
    if (!cross_host) {
        // Intra-host: exactly the pre-rack sequence, so single-host
        // runs keep byte-identical timing and stats.
        requestForward(s, [this, leg] { hostLegDiscovered(leg); });
        return;
    }
    // Discovery at the source host, the rack crossing, then the
    // channel fetch + store the Forwarder models at both ends.
    requestForward(s, [this, leg] {
        rackFabric->crossing(cfg.hostOf(xfer(leg).src),
                             cfg.hostOf(xfer(leg).dst), xfer(leg).bytes,
                             [this, leg] { hostLegDiscovered(leg); });
    });
}

void
DlFabric::sendLeg(DimmId s, DimmId d, std::uint64_t bytes,
                  EventCallback done)
{
    // Fig. 5-(a): intra-group legs ride the DL-Bridge. Fig. 5-(b):
    // inter-group legs are CPU-forwarded (across hosts they ride the
    // rack crossing, or the pooled bridge lanes, instead).
    if (groupIdx(s) == groupIdx(d))
        sendIntraGroup(s, d, bytes, std::move(done));
    else
        hostPathSend(s, d, bytes, std::move(done));
}

void
DlFabric::doRemoteRead(XferId t)
{
    // Request packet out, read-return data back: the data returns
    // after the destination's DRAM access.
    sendLeg(xfer(t).src, xfer(t).dst, 0,
            [this, t] { remoteReadAtDst(t); });
}

void
DlFabric::remoteReadAtDst(XferId t)
{
    const Xfer &x = xfer(t);
    memAccess(x.dst, x.addr, x.bytes, /*is_write=*/false, [this, t] {
        sendLeg(xfer(t).dst, xfer(t).src, xfer(t).bytes,
                [this, t] { finishTransaction(t); });
    });
}

void
DlFabric::doRemoteWrite(XferId t)
{
    sendLeg(xfer(t).src, xfer(t).dst, xfer(t).bytes, [this, t] {
        const Xfer &x = xfer(t);
        memAccess(x.dst, x.addr, x.bytes, /*is_write=*/true,
                  [this, t] { finishTransaction(t); });
    });
}

void
DlFabric::doBroadcast(XferId t)
{
    // Fig. 5-(c)/(d): broadcast in the local group over the bridge;
    // for each remote group, one CPU-forwarded copy to the group's
    // entry DIMM (its proxy), then a group-local broadcast there.
    ++statBroadcasts;
    const Xfer &x = xfer(t);
    memAccess(x.src, x.addr, x.bytes, /*is_write=*/false, [this, t] {
        const DimmId src = xfer(t).src;
        const std::uint64_t bytes = xfer(t).bytes;
        ++xfer(t).remaining;
        groupBroadcast(src, bytes, [this, t] { broadcastPartDone(t); });
        for (unsigned g = 0; g < cfg.numGroups(); ++g) {
            if (g == groupIdx(src))
                continue;
            ++xfer(t).remaining;
            const DimmId entry = proxyOf(g);
            hostPathSend(src, entry, bytes, [this, t, entry] {
                groupBroadcast(entry, xfer(t).bytes,
                               [this, t] { broadcastPartDone(t); });
            });
        }
    });
}

void
DlFabric::broadcastPartDone(XferId t)
{
    if (--xfer(t).remaining == 0)
        finishTransaction(t);
}

void
DlFabric::doSyncMessage(XferId t)
{
    sendLeg(xfer(t).src, xfer(t).dst, xfer(t).bytes,
            [this, t] { finishTransaction(t); });
}

void
DlFabric::finishTransaction(XferId t)
{
    const Xfer &x = xfer(t);
    statLatencyPs.sample(static_cast<double>(eventq.now() - x.started));
    if (tr)
        tr->asyncEnd(trk, x.nm, eventq.now(), x.aid);
    EventCallback cb = claim(t);
    if (cb)
        cb();
}

std::string
DlFabric::debugDump()
{
    std::ostringstream os;
    os << "fabric.dl: dllWaiting=" << dllWaiting
       << " forwardBacklog=" << path.forwarder().backlog()
       << " liveTransfers=" << liveXfers << "\n";
    std::vector<std::uint64_t> keys;
    for (const std::uint64_t k : dllSlots)
        if (k != 0)
            keys.push_back(k - 1);
    std::sort(keys.begin(), keys.end());
    std::size_t shown = 0;
    for (const std::uint64_t k : keys) {
        if (shown++ == 16) {
            os << "  ... (" << (keys.size() - 16)
               << " more waiting keys)\n";
            break;
        }
        os << "  waiting: " << ((k >> 24) & 0xff) << " -> "
           << ((k >> 16) & 0xff) << " seq=" << (k & 0xffff) << "\n";
    }
    for (std::size_t d = 0; d < dllCtl.size(); ++d) {
        const auto &c = *dllCtl[d];
        if (c.retryInFlight() == 0 && c.retryQueued() == 0 &&
            c.receiverBuffered() == 0)
            continue;
        os << "  dllc" << d << ": retryInFlight=" << c.retryInFlight()
           << " retryQueued=" << c.retryQueued()
           << " receiverBuffered=" << c.receiverBuffered() << "\n";
    }
    for (std::size_t g = 0; g < health.size(); ++g) {
        if (health[g]->numSuspectOrDown() == 0)
            continue;
        os << "  group" << g << " link health:\n" << health[g]->dump();
    }
    if (rackFabric)
        os << rackFabric->debugDump();
    return os.str();
}

void
DlFabric::submit(Transaction t)
{
    ++statTransactions;
    const XferId h = newXfer();
    Xfer &x = xfer(h);
    x.src = t.src;
    x.dst = t.dst;
    x.addr = t.addr;
    x.bytes = t.bytes;
    x.started = eventq.now();
    x.nm = nmXact[static_cast<int>(t.type)];
    if (tr) {
        x.aid = tr->nextAsyncId();
        tr->asyncBegin(trk, x.nm, x.started, x.aid);
    }
    x.next = std::move(t.onComplete);

    switch (t.type) {
      case Transaction::Type::RemoteRead:
        doRemoteRead(h);
        break;
      case Transaction::Type::RemoteWrite:
        doRemoteWrite(h);
        break;
      case Transaction::Type::Broadcast:
        doBroadcast(h);
        break;
      case Transaction::Type::SyncMessage:
        doSyncMessage(h);
        break;
    }
}

namespace {

FabricFactory::Registrar regDl("DIMM-Link",
    [](EventQueue &eq, const SystemConfig &cfg,
       std::vector<host::Channel *> channels, stats::Registry &reg)
        -> std::unique_ptr<Fabric> {
        return std::make_unique<DlFabric>(eq, cfg, std::move(channels),
                                       reg);
    });

} // namespace

} // namespace idc
} // namespace dimmlink
