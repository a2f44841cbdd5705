/**
 * @file
 * One DL group's interconnect: the TopologyGraph, a Router per DIMM
 * and a pair of unidirectional Links per adjacent DIMM pair, assembled
 * and exposed through a small injection/ejection API.
 */

#ifndef DIMMLINK_NOC_NETWORK_HH
#define DIMMLINK_NOC_NETWORK_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "noc/link.hh"
#include "noc/message.hh"
#include "noc/router.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace noc {

class Network
{
  public:
    /**
     * @param faults  when non-null, each link gets the configured
     *                fault model (seeded from its own name) attached
     *                at construction.
     */
    Network(EventQueue &eq, std::string name, const LinkConfig &cfg,
            unsigned nodes, stats::Registry &registry,
            const FaultConfig *faults = nullptr);

    /**
     * Try to inject @p msg at node msg.src, moving it into the network
     * only on success. @return false when the injection port is out
     * of buffer space (msg is left untouched); the caller should retry
     * from its retry handler.
     */
    bool tryInject(Message &&msg);

    /** As above, for a message the caller keeps: it is copied in. */
    bool tryInject(const Message &msg);

    /** Called whenever node @p node frees injection space. */
    void setRetryHandler(int node, std::function<void()> h);

    const TopologyGraph &graph() const { return topo; }
    unsigned numNodes() const { return topo.numNodes(); }

    /**
     * Mask the directed link @p a -> @p b down (or up) and recompute
     * the group's routing tables and broadcast trees in place; every
     * router sees the new tables on its next forwarding decision.
     */
    void setLinkDown(int a, int b, bool down)
    {
        topo.setEdgeDown(a, b, down);
    }

    /** The physical link driving @p a -> @p b (null when the pair is
     * not adjacent). Health probes transmit on it directly. */
    Link *linkBetween(int a, int b) const
    {
        const auto it = linkOf.find({a, b});
        return it == linkOf.end() ? nullptr : it->second;
    }

    /** Aggregate statistics for reporting. */
    double totalLinkBusyPs() const;
    std::uint64_t messagesDelivered() const;

  private:
    /** Does node msg.src have injection space for @p msg? */
    bool canInject(const Message &msg) const;

    std::string name_;
    LinkConfig cfg;
    TopologyGraph topo;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<std::unique_ptr<Link>> links;
    std::map<std::pair<int, int>, Link *> linkOf;
    stats::Registry &registry;
    stats::Scalar &statInjected;
    stats::Scalar &statInjectBlocked;
    stats::Distribution &statLatencyPs;
    EventQueue &eventq;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_NETWORK_HH
