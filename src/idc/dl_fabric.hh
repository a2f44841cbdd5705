/**
 * @file
 * The DIMM-Link fabric (Section III): per-group packet routing over
 * the DL-Bridge networks, hybrid routing for inter-group traffic via
 * host CPU forwarding, the polling-proxy mechanism of Section IV-A,
 * and group broadcast along per-source spanning trees (Fig. 5).
 */

#ifndef DIMMLINK_IDC_DL_FABRIC_HH
#define DIMMLINK_IDC_DL_FABRIC_HH

#include <memory>
#include <vector>

#include "common/ring.hh"
#include "dimm/dl_controller.hh"
#include "fault/link_health.hh"
#include "idc/fabric.hh"
#include "noc/network.hh"
#include "proto/codec.hh"

namespace dimmlink {

namespace rack {
class InterHostFabric;
} // namespace rack

namespace idc {

class DlFabric : public Fabric
{
  public:
    DlFabric(EventQueue &eq, const SystemConfig &cfg,
             std::vector<host::Channel *> channels,
             stats::Registry &reg);
    ~DlFabric() override;

    void submit(Transaction t) override;
    void enterNmpMode() override { path.start(); }
    void exitNmpMode() override { path.stop(); }

    /** Hop/forwarding-aware distance for the task mapper (§IV-B). */
    double distance(DimmId j, DimmId k) const override;

    std::size_t forwardBacklog() override
    {
        return path.forwarder().backlog();
    }

    std::size_t
    dllInFlight() override
    {
        std::size_t n = 0;
        for (const auto &c : dllCtl)
            n += c->retryInFlight();
        return n;
    }

    /** The polling proxy (and sync master) DIMM of @p group: the
     * middle of the group to minimize average hops. */
    DimmId proxyOf(unsigned group) const;

    const noc::Network &network(unsigned group) const
    {
        return *nets[group];
    }

    /** Wire bytes (flit-padded, incl. header/tail) for a payload. */
    static std::uint64_t wireBytesFor(std::uint64_t payload_bytes);

    /** In-flight DLL keys, retry windows, health and backlog state. */
    std::string debugDump() override;

    /** Transfer records currently allocated (the leak check: zero
     * once every submitted transaction and DLL exchange has drained). */
    std::size_t liveTransfers() const { return liveXfers; }

    /** Forward the availability feed to the rack fabric (no-op
     * without one: single-host runs have no host-level outages). */
    void setHostAvailabilitySink(HostAvailabilitySink s) override;

    /** Link health tracker of @p group (null with faults off). */
    const fault::LinkHealth *linkHealth(unsigned group) const
    {
        return group < health.size() ? health[group].get() : nullptr;
    }

    /** What to do with a transfer whose DLL retry budget ran out. */
    enum class ExhaustPolicy { Failover, Drop, Panic };

  private:
    unsigned groupIdx(DimmId d) const { return cfg.groupOf(d); }
    int nodeIdx(DimmId d) const
    {
        return static_cast<int>(d % cfg.groupSize());
    }
    DimmId dimmAt(unsigned group, int node) const
    {
        return static_cast<DimmId>(group * cfg.groupSize() +
                                   static_cast<unsigned>(node));
    }

    /** NW-interface packetize latency for one packet of @p flits. */
    Tick packetizeDelay(unsigned flits) const;
    Tick decodeDelay(unsigned flits) const;

    /**
     * Generation-tagged handle of a transfer record. A record slot is
     * recycled with its generation bumped, so a stale handle (held by
     * the loser of a completion race) no longer matches and is
     * ignored.
     */
    struct XferId
    {
        std::uint32_t idx = 0;
        std::uint32_t gen = 0;
    };

    /**
     * One in-flight piece of IDC work: a transaction, a segmented
     * transfer's fan-in, one packet, one DLL exchange, or one proxy
     * notification. Closures stored in noc::Messages, the retry
     * engine and events capture only `this` and an XferId; everything
     * else they need lives here. Fields are used per role as noted.
     */
    struct Xfer
    {
        /** What runs when the record completes. */
        EventCallback next;
        /** DLL packet: the encoded image the far end decodes. */
        std::shared_ptr<std::vector<std::uint8_t>> wire;
        /** DLL exchange: the route it was admitted on. */
        std::vector<std::pair<int, int>> route;
        Tick started = 0;        ///< Transaction: latency clock.
        Addr addr = 0;           ///< Transaction: DIMM-local address.
        std::uint64_t aid = 0;   ///< Tracer async span id.
        std::uint64_t msgId = 0; ///< Packet: noc::Message id.
        XferId parent;           ///< Broadcast packet: its fan-in.
        DimmId src = 0;
        DimmId dst = 0;
        /** Transaction / host-leg bytes; DLL exchange payload. */
        std::uint32_t bytes = 0;
        /** Outstanding parts (packets, copies, ejections) or, for a
         * DLL exchange, owners (retry engine + waiting claim). */
        std::uint32_t remaining = 0;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = ~0u; ///< Free-list link.
        unsigned flits = 0;      ///< Packet size.
        std::uint16_t nm = 0;    ///< Transaction: tracer name.
        std::uint16_t seq = 0;   ///< DLL exchange: stream sequence.
        bool keyed = false;      ///< DLL exchange: seq assigned.
        bool broadcast = false;  ///< Packet: group broadcast.
        bool live = false;
    };

    XferId newXfer();
    Xfer &
    xfer(XferId h)
    {
        return xferChunks[h.idx >> xferChunkBits]
                         [h.idx & (xferChunkSize - 1)];
    }
    /** True while @p h names the record it was issued for. */
    bool
    current(XferId h)
    {
        return h.idx < xferSlots && xfer(h).live &&
               xfer(h).gen == h.gen;
    }
    void freeXfer(XferId h);
    /** Take @p h's continuation and free the record. */
    EventCallback claim(XferId h);
    /** One part of @p h landed; the last one completes it. */
    void partDone(XferId h);

    /** Build the noc::Message for packet record @p h. */
    noc::Message packetOf(XferId h);
    /** After the NW-interface packetize delay, inject packet @p h
     * (deliver/onDropped set by @p kind). */
    enum class PacketKind { Data, Broadcast, DllData, DllControl };
    void schedulePacket(XferId h, PacketKind kind);
    void injectPacket(XferId h, PacketKind kind);

    /**
     * Send @p payload_bytes from @p s to @p d inside one group,
     * segmented into packets; @p delivered fires at d after the last
     * packet is decoded. With fault injection enabled the packets ride
     * the reliable DLL transport (real wire images, CRC validation at
     * the far end, NACK/timeout retransmission); otherwise the fast
     * flit-count-only path is used and timing is bit-identical to the
     * pre-fault model.
     */
    void sendIntraGroup(DimmId s, DimmId d, std::uint64_t payload_bytes,
                        EventCallback delivered);
    /** Non-DLL data packet @p h was decoded at its destination. */
    void packetDecoded(XferId h);

    /**
     * Transmit one DL packet from @p s to @p d (same group) under DLL
     * retry protection. @p delivered fires at d when the packet is
     * first decoded and released in order; a transfer whose retry
     * budget is exhausted counts toward dllFailedTransfers and still
     * completes so the simulation can terminate.
     */
    void sendDllPacket(DimmId s, DimmId d, proto::Packet pkt,
                       EventCallback delivered);
    /** The retry engine (re)transmits exchange @p h's packet. */
    void dllTransmit(XferId h, const proto::Packet &p,
                     std::vector<std::uint8_t> wire);
    /** Exchange @p h's ACK returned. */
    void dllAcked(XferId h);
    /** Exchange @p h exhausted its retry budget. */
    void dllFailed(XferId h);
    /** The retry engine or the waiting claim let go of exchange @p h. */
    void dllRelease(XferId h);
    /** DLL image record @p h finished decode at its destination. */
    void dllDecoded(XferId h);
    /** A DLL wire image finished decode at DIMM @p d. */
    void dllReceive(DimmId d, const std::vector<std::uint8_t> &wire);
    /** Claim and fire @p p's completion if it is still waiting. */
    void completeDllDelivery(const proto::Packet &p);
    /**
     * Sequence @p seq of the s -> d stream was retired by the
     * exhaustion policy without an in-order delivery; advance d's
     * receive stream past the gap so post-recovery sequences are not
     * held forever behind it. The notification rides the same
     * host-forwarded image (failover) or a dedicated host note
     * (drop), so it arrives even while the bridge route is dead.
     */
    void dllStreamResync(DimmId s, DimmId d, std::uint16_t seq);
    /** Send an ACK/NACK produced at @p from back over the bridge. */
    void sendDllControl(DimmId from, const proto::Packet &ctrl);
    /** DLL control record @p h finished decode at its destination. */
    void controlDecoded(XferId h);

    /** The waiting-table key of sequence @p seq on stream s -> d. */
    static std::uint64_t
    dllKey(unsigned s, unsigned d, std::uint16_t seq)
    {
        // +1 keeps 0 free as the empty-slot marker.
        return ((static_cast<std::uint64_t>(s) << 24) |
                (static_cast<std::uint64_t>(d) << 16) | seq) + 1;
    }
    /** Slot of @p key in the waiting table, or dllSlots.size(). */
    std::size_t dllFind(std::uint64_t key) const;
    void dllInsert(std::uint64_t key, XferId h);
    void dllErase(std::size_t slot);

    /** Inject one message, queueing on backpressure. */
    void inject(unsigned group, noc::Message msg);
    void drainInjectQueue(unsigned group, int node);

    /**
     * Register a CPU-forwarding job for @p src. Under the proxy
     * schemes the notification first travels to the group's proxy
     * DIMM over the link network; when the proxy is unreachable over
     * the bridge (or the note is dropped mid-flight by a route
     * recompute), the job falls back to the host's own polling cadence
     * with a discovery-latency penalty.
     */
    void requestForward(DimmId src, EventCallback job);
    /** Proxy note @p h reached its proxy, was dropped, or timed out;
     * the first of the three claims the job. */
    void noteDelivered(XferId h);
    void noteLost(XferId h);
    /** The host discovers @p job at @p proxy one poll interval late. */
    void forwardFallback(DimmId proxy, EventCallback job);

    /**
     * Deliver @p payload_bytes from @p s to @p d (same group) over the
     * host CPU-forwarding path instead of the bridge — the degraded
     * route for pairs the routing tables can no longer connect.
     */
    void hostFallback(DimmId s, DimmId d, std::uint64_t payload_bytes,
                      EventCallback delivered);

    /**
     * Move one inter-group packet of @p payload_bytes from @p s to
     * @p d over the host path: polling discovery plus the Forwarder
     * copy when both ends share a host (the exact pre-rack sequence),
     * and — when a rack is configured and the endpoints live under
     * different hosts — the same path composed with an inter-host
     * crossing, or the pooled DIMM-Link bridge lanes that bypass both
     * hosts, with failover onto the surviving path (counted in
     * rack.reroutes). @p done fires like a Forwarder delivery.
     */
    void hostPathSend(DimmId s, DimmId d, std::uint64_t payload_bytes,
                      EventCallback done);
    /** Host-path leg @p h reached its copy step (after discovery,
     * and the rack crossing when there is one): run the copy. */
    void hostLegDiscovered(XferId h);

    /** The directed edges the current tables route (from -> to) over,
     * written into @p edges (its capacity is reused). */
    void routePath(unsigned group, int from, int to,
                   std::vector<std::pair<int, int>> &edges) const;

    /** Put one health probe on the physical link a -> b of @p group. */
    void sendHealthProbe(unsigned group, int a, int b,
                         std::uint64_t probe_id);
    /** A link health state change: stats, tracing, route recompute. */
    void onHealthTransition(unsigned group, int a, int b,
                            fault::LinkState from, fault::LinkState to);

    /** Broadcast @p bytes within @p group starting at node of @p s. */
    void groupBroadcast(DimmId s, std::uint64_t bytes,
                        EventCallback all_delivered);
    /** Broadcast packet @p h was ejected at @p node. */
    void broadcastEjected(XferId h, int node);

    void doRemoteRead(XferId t);
    void doRemoteWrite(XferId t);
    void doBroadcast(XferId t);
    void doSyncMessage(XferId t);
    /** Send @p bytes s -> d over the bridge or the host path,
     * whichever the group placement calls for. */
    void sendLeg(DimmId s, DimmId d, std::uint64_t bytes,
                 EventCallback done);
    /** Transaction @p t's remote-read data is ready at its dst. */
    void remoteReadAtDst(XferId t);
    /** One copy of broadcast transaction @p t landed. */
    void broadcastPartDone(XferId t);
    /** Sample, trace and complete transaction @p t. */
    void finishTransaction(XferId t);

    std::vector<host::Channel *> channels;
    std::vector<std::unique_ptr<noc::Network>> nets;
    /** The inter-host fabric; null unless cfg.rackEnabled(). */
    std::unique_ptr<rack::InterHostFabric> rackFabric;
    /** cfg.rack.idcMode == "pooled" (the primary cross-host route). */
    bool rackPooledPrimary = false;
    /** Per (group, node) queue of messages awaiting injection space. */
    std::vector<std::vector<Ring<noc::Message>>> injectQ;
    CpuForwardPath path;
    std::uint64_t nextMsgId = 1;

    /** True when intra-group data rides the reliable DLL transport
     * (enabled whenever a fault model is configured). */
    bool dllPath = false;
    /** Parsed from cfg.faults.onExhausted. */
    ExhaustPolicy exhaustPolicy = ExhaustPolicy::Failover;
    /** The fabric's per-DIMM DL-Controllers, indexed by global id. */
    std::vector<std::unique_ptr<DlController>> dllCtl;
    /** Per-group link health trackers (empty with faults off). */
    std::vector<std::unique_ptr<fault::LinkHealth>> health;
    /**
     * The transfer record table, in fixed chunks: records never move
     * (references stay valid while new records are allocated) and
     * growing the table never copies it. Slots recycle through
     * freeXfer; the table only grows at a new high-water mark.
     */
    static constexpr unsigned xferChunkBits = 8;
    static constexpr std::uint32_t xferChunkSize = 1u << xferChunkBits;
    std::vector<std::unique_ptr<Xfer[]>> xferChunks;
    std::uint32_t xferSlots = 0;
    std::uint32_t freeXferHead = ~0u;
    std::size_t liveXfers = 0;

    /**
     * DLL exchanges waiting for their in-order delivery, keyed by
     * (SRC, DST, sequence) -- sequence numbers are only unique per
     * directed stream. Open addressing with linear probing; 0 marks
     * an empty slot. An entry is claimed exactly once: at first
     * in-order delivery, or on permanent failure, whichever comes
     * first.
     */
    std::vector<std::uint64_t> dllSlots;
    std::vector<XferId> dllSlotXfer;
    std::size_t dllWaiting = 0;

    stats::Scalar &statPacketsLink;
    stats::Scalar &statPacketsHost;
    stats::Scalar &statProxyNotifies;
    stats::Scalar &statDllFailedTransfers;
    stats::Scalar &statDllCtrlDropped;
    // Recovery-path counters (zero unless a fault model is set).
    stats::Scalar &statFailovers;
    stats::Scalar &statFailoverBytes;
    stats::Scalar &statStreamResyncs;
    stats::Scalar &statHostReroutes;
    stats::Scalar &statProxyNotifyFallbacks;
    stats::Scalar &statHealthSuspect;
    stats::Scalar &statHealthDown;
    stats::Scalar &statHealthRecovered;
    stats::Scalar &statProbesSent;
    stats::Scalar &statProbesFailed;

    obs::Tracer *tr = nullptr; ///< Null unless dll tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmXact[4] = {0, 0, 0, 0}; ///< Indexed by Type.
    std::uint16_t nmPacket = 0, nmDllXfer = 0, nmDllRetry = 0,
                  nmDllFailed = 0;
    std::uint16_t nmLinkSuspect = 0, nmLinkDown = 0, nmLinkUp = 0,
                  nmFailover = 0, nmDllResync = 0;
};

} // namespace idc
} // namespace dimmlink

#endif // DIMMLINK_IDC_DL_FABRIC_HH
