#include "noc/router.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/tracer.hh"

namespace dimmlink {
namespace noc {

Router::Router(EventQueue &eq, std::string name, int node,
               const TopologyGraph &graph_, unsigned buffer_flits,
               Tick router_latency_ps, stats::Group &sg,
               stats::Distribution &latency)
    : eventq(eq),
      name_(std::move(name)),
      node_(node),
      graph(graph_),
      bufferFlits(buffer_flits),
      routerLatency(router_latency_ps),
      statForwarded(sg.scalar("forwarded")),
      statEjected(sg.scalar("ejected")),
      statBlockedCredits(sg.scalar("blockedOnCredits")),
      statDroppedUnroutable(sg.scalar("droppedUnroutable")),
      statLatencyPs(latency)
{
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatNoc)) {
        tr = t;
        trk = t->track(name_, obs::CatNoc);
        nmCreditBlock = t->intern("creditBlock");
    }
    // One input port per incoming neighbor link plus the local
    // injection port.
    const auto nbs = graph.neighbors(node);
    ports.resize(1 + nbs.size());
    ports[0].fromNode = injectPort;
    portOfNode[injectPort] = 0;
    for (std::size_t i = 0; i < nbs.size(); ++i) {
        portOfNode[nbs[i]] = i + 1;
        ports[i + 1].fromNode = nbs[i];
    }
}

void
Router::connectOutput(int neighbor, Link *link, Router *downstream)
{
    outputs[neighbor] = Output{link, downstream};
}

bool
Router::canAccept(unsigned flits, int from_node) const
{
    const auto it = portOfNode.find(from_node);
    if (it == portOfNode.end())
        panic("router %s: no port for node %d", name_.c_str(),
              from_node);
    const Port &p = ports[it->second];
    return p.usedFlits + flits <= bufferFlits;
}

void
Router::accept(Message msg, int from_node)
{
    Port &p = ports[portOfNode.at(from_node)];
    if (p.usedFlits + msg.flits > bufferFlits)
        panic("router %s: port overflow from node %d (credits were "
              "not reserved)", name_.c_str(), from_node);
    p.usedFlits += msg.flits;
    p.q.push_back(std::move(msg));
    scheduleKick(eventq.now() + routerLatency);
}

void
Router::scheduleKick(Tick when)
{
    if (when < eventq.now())
        when = eventq.now();
    if (kickScheduled && kickAt <= when)
        return;
    if (kickScheduled)
        eventq.deschedule(kickEventId);
    kickScheduled = true;
    kickAt = when;
    kickEventId = eventq.schedule(when,
                                  [this] {
                                      kickScheduled = false;
                                      forward();
                                  },
                                  EventPriority::Control);
}

void
Router::kick()
{
    scheduleKick(eventq.now());
}

bool
Router::canSend(const Message &msg, int next_hop, bool from_injection)
{
    auto it = outputs.find(next_hop);
    if (it == outputs.end())
        panic("router %s: no output toward node %d", name_.c_str(),
              next_hop);
    Output &out = it->second;
    if (out.link->freeAt() > eventq.now()) {
        // Link busy: retry when it frees up.
        scheduleKick(out.link->freeAt());
        return false;
    }
    // Bubble flow control: injected messages on cyclic topologies
    // must leave one max-packet bubble downstream.
    const unsigned reserve =
        (from_injection && graph.cyclic()) ? bubbleReserve : 0;
    if (!out.downstream->canAccept(msg.flits + reserve, node_)) {
        // Out of credits: the downstream router kicks us on release.
        ++statBlockedCredits;
        if (tr)
            tr->instant(trk, nmCreditBlock, eventq.now(), msg.flits);
        return false;
    }
    return true;
}

void
Router::send(Message msg, int next_hop)
{
    // Reserve the downstream buffer space now (credit leaves with the
    // flits) and hand the message to the link.
    Output &out = outputs.find(next_hop)->second;
    Router *down = out.downstream;
    const int from = node_;
    Port &dport = down->ports[down->portOfNode.at(from)];
    dport.usedFlits += msg.flits;
    out.link->transmit(std::move(msg), [down, from](Message m) {
        // Space was pre-reserved; enqueue without re-reserving.
        Port &p = down->ports[down->portOfNode.at(from)];
        p.q.push_back(std::move(m));
        down->scheduleKick(down->eventq.now() + down->routerLatency);
    });
    ++statForwarded;
}

void
Router::eject(Message &msg)
{
    ++statEjected;
    statLatencyPs.sample(static_cast<double>(eventq.now() -
                                             msg.injectedAt));
    if (msg.deliver)
        msg.deliver(node_);
}

void
Router::popHead(Port &port)
{
    const unsigned flits = port.q.front().flits;
    port.q.pop_front();
    if (port.usedFlits < flits)
        panic("router %s: flit accounting underflow", name_.c_str());
    port.usedFlits -= flits;
    port.headChildrenValid = false;
    port.headChildren.clear();
    notifyUpstream();
}

void
Router::notifyUpstream()
{
    // Freed credits: wake every router with a link into us (the
    // bridge is bidirectional, so those are exactly our neighbors),
    // plus the local injector.
    for (int nb : graph.neighbors(node_)) {
        auto it = outputs.find(nb);
        if (it != outputs.end() && it->second.downstream)
            it->second.downstream->kick();
    }
    if (spaceFreedHandler)
        spaceFreedHandler();
}

bool
Router::tryPort(Port &port)
{
    if (port.q.empty())
        return false;
    Message &m = port.q.front();

    if (m.broadcast) {
        if (!port.headChildrenValid) {
            port.headChildren = graph.broadcastChildren(m.src, node_);
            port.headChildrenValid = true;
        }
        // Forward to each remaining tree child; eject once all copies
        // have left.
        while (!port.headChildren.empty()) {
            const int child = port.headChildren.back();
            if (!canSend(m, child, port.fromNode == injectPort))
                return false;
            send(m, child); // Fan-out: the one place a copy is made.
            port.headChildren.pop_back();
        }
        Message msg = std::move(m);
        popHead(port);
        eject(msg);
        return true;
    }

    if (m.dst == node_) {
        Message msg = std::move(m);
        popHead(port);
        eject(msg);
        return true;
    }

    const int next = graph.nextHop(node_, m.dst);
    if (next == -1) {
        // The destination became unreachable while the message was in
        // flight (a link failed and the tables recomputed without a
        // route). Drop it: DLL-protected traffic recovers through the
        // sender's retry timeout and the exhaustion policy; senders
        // without retries install onDropped as their fallback.
        ++statDroppedUnroutable;
        Message msg = std::move(m);
        popHead(port);
        if (msg.onDropped)
            msg.onDropped();
        return true;
    }
    if (!canSend(m, next, port.fromNode == injectPort))
        return false;
    // Send before releasing the port's credits (popHead reads the
    // moved-from head's flit count): the upstream wake-ups it triggers
    // follow the transmit, as they always have.
    send(std::move(m), next);
    popHead(port);
    return true;
}

void
Router::forward()
{
    // One arbitration pass: every port may move its head message.
    // Round-robin starting point for fairness under contention.
    const std::size_t n = ports.size();
    bool any_left = false;
    for (std::size_t i = 0; i < n; ++i) {
        Port &port = ports[(rrNext + i) % n];
        tryPort(port);
        if (!port.q.empty())
            any_left = true;
    }
    rrNext = (rrNext + 1) % n;
    if (any_left) {
        // Blocked heads are re-kicked by link-free or credit-release
        // callbacks; a conservative periodic retry guards rare cases.
        scheduleKick(eventq.now() + routerLatency);
    }
}

} // namespace noc
} // namespace dimmlink
