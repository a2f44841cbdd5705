/**
 * @file
 * The DL-Router inside each DIMM's DL-Controller. Input-buffered with
 * flit-denominated credits, round-robin port arbitration, deterministic
 * shortest-path unicast and spanning-tree broadcast forwarding.
 */

#ifndef DIMMLINK_NOC_ROUTER_HH
#define DIMMLINK_NOC_ROUTER_HH

#include <functional>
#include <map>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "noc/link.hh"
#include "noc/message.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace noc {

class Router
{
  public:
    /** Port index of the local injection queue. */
    static constexpr int injectPort = -1;

    /**
     * @param latency  the network's end-to-end latency distribution:
     *                 every ejection samples now - msg.injectedAt
     *                 into it just before calling msg.deliver.
     */
    Router(EventQueue &eq, std::string name, int node,
           const TopologyGraph &graph, unsigned buffer_flits,
           Tick router_latency_ps, stats::Group &sg,
           stats::Distribution &latency);

    /** Wire an output toward neighbor @p node. */
    void connectOutput(int neighbor, Link *link, Router *downstream);

    /** Called when buffer space frees; used for injection backpressure. */
    void setSpaceFreedHandler(std::function<void()> h)
    {
        spaceFreedHandler = std::move(h);
    }

    /** Space (in flits) available on the port fed by @p from_node. */
    bool canAccept(unsigned flits, int from_node) const;

    /** Enqueue a message arriving from @p from_node (or injectPort). */
    void accept(Message msg, int from_node);

    /** Attempt to make forwarding progress (idempotent, reentrant-safe
     * via event scheduling). */
    void kick();

    int node() const { return node_; }

  private:
    struct Port
    {
        int fromNode;
        /** Bounded by bufferFlits: every queued message holds at
         * least one flit of the port's credit. */
        Ring<Message> q;
        unsigned usedFlits = 0;
        /** Remaining broadcast children for the head message. */
        std::vector<int> headChildren;
        bool headChildrenValid = false;
    };

    struct Output
    {
        Link *link = nullptr;
        Router *downstream = nullptr;
    };

    void scheduleKick(Tick when);
    void forward();
    /** True if the head of @p port made progress. */
    bool tryPort(Port &port);
    /**
     * Can @p msg leave toward @p next_hop now? When not, arrange the
     * retry (a kick at link-free time, or the downstream's credit
     * release). Messages entering a cyclic topology from the
     * injection port must leave a bubble (one max packet of spare
     * buffer) in the downstream port -- bubble flow control keeps the
     * rings deadlock-free.
     */
    bool canSend(const Message &msg, int next_hop, bool from_injection);
    /**
     * Reserve the downstream credits and put @p msg on the link
     * toward @p next_hop. @pre canSend() just returned true. Unicast
     * heads are moved in; only broadcast fan-out passes copies.
     */
    void send(Message msg, int next_hop);
    /** Count, sample and hand an ejected message to its deliver. */
    void eject(Message &msg);
    void popHead(Port &port);
    void notifyUpstream();

    EventQueue &eventq;
    std::string name_;
    int node_;
    const TopologyGraph &graph;
    unsigned bufferFlits;
    /** Bubble size for injections on cyclic topologies: one maximal
     * DL packet (17 flits). */
    unsigned bubbleReserve = 17;
    Tick routerLatency;

    std::vector<Port> ports;
    std::map<int, std::size_t> portOfNode;
    std::map<int, Output> outputs;
    std::size_t rrNext = 0;

    bool kickScheduled = false;
    Tick kickAt = 0;
    std::uint64_t kickEventId = 0;

    std::function<void()> spaceFreedHandler;

    stats::Scalar &statForwarded;
    stats::Scalar &statEjected;
    stats::Scalar &statBlockedCredits;
    /** Messages dropped for lack of a live route. */
    stats::Scalar &statDroppedUnroutable;
    stats::Distribution &statLatencyPs;

    obs::Tracer *tr = nullptr; ///< Null unless noc tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmCreditBlock = 0;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_ROUTER_HH
