#include "idc/fabric.hh"

#include "common/log.hh"

namespace dimmlink {
namespace idc {

Fabric::Fabric(EventQueue &eq, const SystemConfig &cfg_,
               stats::Registry &reg, std::string name)
    : eventq(eq),
      cfg(cfg_),
      registry(reg),
      name_(std::move(name)),
      statTransactions(reg.group(name_).scalar("transactions")),
      statBytesViaLink(reg.group(name_).scalar("bytesViaLink")),
      statBytesViaHost(reg.group(name_).scalar("bytesViaHost")),
      statBytesViaBus(reg.group(name_).scalar("bytesViaBus")),
      statBroadcasts(reg.group(name_).scalar("broadcasts")),
      statLatencyPs(reg.group(name_).distribution("latencyPs"))
{
}

double
Fabric::distance(DimmId j, DimmId k) const
{
    // Baseline fabrics: every remote DIMM costs the same.
    return j == k ? 0.0 : 1.0;
}

CpuForwardPath::CpuForwardPath(EventQueue &eq, const SystemConfig &cfg,
                               std::vector<host::Channel *> channels,
                               std::vector<DimmId> poll_targets,
                               stats::Registry &reg)
    : eventq(eq),
      fwd(eq, cfg, channels, reg),
      poll(host::makePollingEngine(eq, cfg, channels,
                                   std::move(poll_targets), reg)),
      queued(cfg.numDimms)
{
    poll->setDiscoverHandler([this](DimmId d) { onDiscover(d); });
}

void
CpuForwardPath::request(DimmId target, EventCallback job)
{
    queued[target].push_back(std::move(job));
    poll->requestRaised(target);
}

void
CpuForwardPath::onDiscover(DimmId target)
{
    // Jobs may queue new requests at the same target while they run:
    // take the list first, then hand its storage back for reuse.
    std::vector<EventCallback> jobs;
    jobs.swap(queued[target]);
    for (auto &job : jobs)
        job();
    if (queued[target].empty()) {
        jobs.clear();
        queued[target].swap(jobs);
    }
}

void
CpuForwardPath::stop()
{
    poll->stop();
    for (auto &q : queued)
        q.clear();
}

std::unique_ptr<Fabric>
makeFabric(EventQueue &eq, const SystemConfig &cfg,
           std::vector<host::Channel *> channels, stats::Registry &reg)
{
    return FabricFactory::instance().create(
        toString(cfg.idcMethod), eq, cfg, std::move(channels), reg);
}

} // namespace idc
} // namespace dimmlink
