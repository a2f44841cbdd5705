/**
 * @file
 * Rack-scale memory pooling: the inter-host fabric connecting N hosts
 * that share the pool of NMP-DIMM nodes (docs/rack.md). The DL groups
 * partition across the hosts; inter-group traffic whose endpoints live
 * under different hosts crosses this fabric, either host-forwarded
 * (source host's rack port -> switch hops -> destination host's rack
 * port, composed with the existing polling + Forwarder path at both
 * ends) or over pooled DIMM-Link bridge lanes connecting the hosts'
 * gateway pool nodes directly, bypassing both host CPUs.
 *
 * The fabric owns the rack-level availability state: each host's rack
 * port and each host's bridge attach run PR 5's LinkHealth state
 * machine (up -> suspect -> down, probe-driven recovery), fed by the
 * scheduled rack.hostDown* / rack.nodeDown* outages. The DlFabric
 * consults hostUp()/bridgeUp() per transfer and reroutes onto the
 * surviving path, counting rack.reroutes.
 */

#ifndef DIMMLINK_RACK_INTER_HOST_FABRIC_HH
#define DIMMLINK_RACK_INTER_HOST_FABRIC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/factory.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fault/link_health.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace rack {

class InterHostFabric
{
  public:
    InterHostFabric(EventQueue &eq, const SystemConfig &cfg,
                    stats::Registry &reg);
    virtual ~InterHostFabric() = default;

    /** Switch hops a crossing from host @p a to host @p b pays. */
    virtual unsigned hops(unsigned a, unsigned b) const = 0;

    /** Registered name ("switch", "direct"). */
    virtual const char *kind() const = 0;

    /** Is host @p h's rack port (and forwarding CPU) routable? */
    bool hostUp(unsigned h) const;
    /** Are both gateway bridge attaches of the @p a <-> @p b pooled
     * lane routable? */
    bool bridgeUp(unsigned a, unsigned b) const;

    /**
     * Host-forwarded crossing: serialize @p bytes through host @p a's
     * egress port, cross latencyPs + hops() * switchHopPs of fabric,
     * serialize through host @p b's ingress port. @p done fires when
     * the payload has landed in host b's memory domain (the caller
     * then descends over b's channels via the Forwarder).
     */
    void crossing(unsigned a, unsigned b, std::uint64_t bytes,
                  EventCallback done);

    /**
     * Pooled-bridge crossing: serialize @p bytes on the directed
     * a -> b bridge lane at pooledGBps and pay the cable latency plus
     * one DL-Bridge hop at each gateway, with no host CPU or switch
     * involvement. @p done fires at the destination gateway.
     */
    void pooledSend(unsigned a, unsigned b, std::uint64_t bytes,
                    EventCallback done);

    /** The DlFabric flipped a transfer onto its failover route. */
    void noteReroute() { ++statReroutes; }

    /**
     * Availability feed for the serving circuit breaker: fired
     * whenever a host's rack port (@p is_gateway false) or bridge
     * attach (@p is_gateway true) crosses the Down boundary of its
     * health state machine. System applies it to the HostHealthView.
     */
    using AvailabilitySink =
        std::function<void(unsigned host, bool is_gateway, bool up)>;
    void setAvailabilitySink(AvailabilitySink s)
    {
        availSink = std::move(s);
    }

    /** One line per non-up rack edge, for hang diagnostics. */
    std::string debugDump() const;

  protected:
    EventQueue &eventq;
    const SystemConfig &cfg;

  private:
    /** Synthetic far-end columns of the health graph: (host, kPort)
     * is the host's rack port, (host, kGateway) its bridge attach. */
    static constexpr int kPort = -1;
    static constexpr int kGateway = -2;

    using Edge = std::pair<int, int>;

    bool dead(const Edge &e) const;
    void scheduleOutage(Edge e, Tick at, Tick for_ps);
    /** The tick a transfer admitted onto @p e1 / @p e2 must park
     * until (0 = no parking: both edges live, or a dead edge's
     * outage is permanent and delivery keeps the pre-outage
     * semantics so fault-free paths never hang behind it). */
    Tick parkUntil(const Edge &e1, const Edge &e2) const;
    /** Claim the busy-until lane no earlier than @p not_before,
     * serialize @p bytes at @p gbps, and return the tick the last
     * byte leaves the lane. */
    Tick serialize(Tick &free_at, Tick not_before, double gbps,
                   std::uint64_t bytes);

    fault::LinkHealth health;
    /** Busy-until of each host's egress / ingress rack port. */
    std::vector<Tick> egressFreeAt;
    std::vector<Tick> ingressFreeAt;
    /** Busy-until of each directed pooled bridge lane. */
    std::map<Edge, Tick> laneFreeAt;
    /** Outage windows keyed by health edge; second = end tick
     * (0 = permanent). */
    std::map<Edge, std::pair<Tick, Tick>> outage;

    stats::Scalar &statCrossings;
    stats::Scalar &statForwardedBytes;
    stats::Scalar &statPooledTransfers;
    stats::Scalar &statPooledBytes;
    stats::Scalar &statReroutes;
    stats::Scalar &statPortDown;
    stats::Scalar &statPortRecovered;
    stats::Scalar &statProbesSent;
    stats::Scalar &statProbesFailed;
    stats::Scalar &statParked;
    stats::Distribution &statCrossLatencyPs;
    AvailabilitySink availSink;
};

/**
 * The inter-host fabric registry, keyed by rack.fabric. Like the IDC
 * FabricFactory, implementations self-register from their own
 * translation unit (rack/fabrics.cc).
 */
using InterHostFabricFactory =
    Factory<InterHostFabric, EventQueue &, const SystemConfig &,
            stats::Registry &>;

/** Build the fabric registered under cfg.rack.fabric. */
std::unique_ptr<InterHostFabric> makeInterHostFabric(
    EventQueue &eq, const SystemConfig &cfg, stats::Registry &reg);

} // namespace rack

template <>
struct FactoryTraits<rack::InterHostFabric>
{
    static constexpr const char *noun = "inter-host fabric";
};

} // namespace dimmlink

#endif // DIMMLINK_RACK_INTER_HOST_FABRIC_HH
