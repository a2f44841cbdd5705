#include "noc/network.hh"

#include "common/log.hh"
#include "fault/fault_model.hh"

namespace dimmlink {
namespace noc {

Network::Network(EventQueue &eq, std::string name, const LinkConfig &cfg_,
                 unsigned nodes, stats::Registry &reg,
                 const FaultConfig *faults)
    : name_(std::move(name)),
      cfg(cfg_),
      topo(cfg_.topology, nodes),
      registry(reg),
      statInjected(reg.group(name_).scalar("injected")),
      statInjectBlocked(reg.group(name_).scalar("injectBlocked")),
      statLatencyPs(reg.group(name_).distribution("latencyPs")),
      eventq(eq)
{
    routers.reserve(nodes);
    for (unsigned i = 0; i < nodes; ++i) {
        auto &sg = reg.group(name_ + ".router" + std::to_string(i));
        routers.push_back(std::make_unique<Router>(
            eq, name_ + ".router" + std::to_string(i),
            static_cast<int>(i), topo, cfg.bufferFlits,
            cfg.routerLatencyPs, sg, statLatencyPs));
    }
    // One unidirectional link per (node, neighbor) ordered pair.
    for (unsigned i = 0; i < nodes; ++i) {
        for (int nb : topo.neighbors(static_cast<int>(i))) {
            const std::string lname = name_ + ".link" +
                std::to_string(i) + "to" + std::to_string(nb);
            auto &sg = reg.group(lname);
            links.push_back(std::make_unique<Link>(
                eq, lname, cfg.linkGBps, cfg.wireLatencyPs,
                cfg.flitBits, sg));
            if (faults)
                links.back()->setFaultModel(
                    fault::makeFaultModel(*faults, lname));
            linkOf[{static_cast<int>(i), nb}] = links.back().get();
            routers[i]->connectOutput(
                nb, links.back().get(),
                routers[static_cast<std::size_t>(nb)].get());
        }
    }
}

bool
Network::canInject(const Message &msg) const
{
    if (msg.src < 0 ||
        static_cast<unsigned>(msg.src) >= topo.numNodes())
        panic("%s: inject from bad node %d", name_.c_str(), msg.src);
    return routers[static_cast<std::size_t>(msg.src)]->canAccept(
        msg.flits, Router::injectPort);
}

bool
Network::tryInject(Message &&msg)
{
    if (!canInject(msg)) {
        ++statInjectBlocked;
        return false;
    }
    msg.injectedAt = eventq.now();
    ++statInjected;
    // The ejecting router samples latencyPs from injectedAt.
    routers[static_cast<std::size_t>(msg.src)]->accept(
        std::move(msg), Router::injectPort);
    return true;
}

bool
Network::tryInject(const Message &msg)
{
    if (!canInject(msg)) {
        ++statInjectBlocked;
        return false;
    }
    return tryInject(Message(msg));
}

void
Network::setRetryHandler(int node, std::function<void()> h)
{
    routers[static_cast<std::size_t>(node)]->setSpaceFreedHandler(
        std::move(h));
}

double
Network::totalLinkBusyPs() const
{
    double sum = 0;
    for (const auto &l : links)
        sum += registry.scalar(l->name() + ".busyPs");
    return sum;
}

std::uint64_t
Network::messagesDelivered() const
{
    double sum = 0;
    for (unsigned i = 0; i < topo.numNodes(); ++i)
        sum += registry.scalar(name_ + ".router" + std::to_string(i)
                               + ".ejected");
    return static_cast<std::uint64_t>(sum);
}

} // namespace noc
} // namespace dimmlink
