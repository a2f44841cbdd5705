#include "idc/mcn_fabric.hh"

#include <memory>

#include "common/log.hh"

namespace dimmlink {
namespace idc {

namespace {

/** All DIMMs are polled individually under the MCN baseline. */
std::vector<DimmId>
allDimms(const SystemConfig &cfg)
{
    std::vector<DimmId> v(cfg.numDimms);
    for (unsigned i = 0; i < cfg.numDimms; ++i)
        v[i] = static_cast<DimmId>(i);
    return v;
}

} // namespace

McnFabric::McnFabric(EventQueue &eq, const SystemConfig &cfg_,
                     std::vector<host::Channel *> channels_,
                     stats::Registry &reg)
    : Fabric(eq, cfg_, reg, "fabric.mcn"),
      channels(channels_),
      path(eq, cfg_, channels_, allDimms(cfg_), reg)
{
}

void
McnFabric::submit(Transaction t)
{
    ++statTransactions;
    const Tick started = eventq.now();
    const DimmId reg_at = t.src;
    path.request(reg_at, [this, t = std::move(t), started]() mutable {
        execute(std::move(t), started);
    });
}

void
McnFabric::execute(Transaction t, Tick started)
{
    auto finish = [this, cb = std::move(t.onComplete), started]() mutable {
        statLatencyPs.sample(
            static_cast<double>(eventq.now() - started));
        if (cb)
            cb();
    };

    const DimmId src = t.src, dst = t.dst;
    const Addr addr = t.addr;
    const std::uint32_t bytes = t.bytes;
    switch (t.type) {
      case Transaction::Type::RemoteRead: {
        // Host reads the data from the remote DIMM (after its local MC
        // stages it from DRAM) and writes it back to the requester.
        statBytesViaHost += bytes;
        memAccess(dst, addr, bytes, /*is_write=*/false,
                  [this, src, dst, bytes,
                   finish = std::move(finish)]() mutable {
                      path.forwarder().copy(dst, src, bytes,
                                            std::move(finish));
                  });
        break;
      }
      case Transaction::Type::RemoteWrite: {
        statBytesViaHost += bytes;
        path.forwarder().copy(
            src, dst, bytes,
            [this, dst, addr, bytes,
             finish = std::move(finish)]() mutable {
                memAccess(dst, addr, bytes, /*is_write=*/true,
                          std::move(finish));
            });
        break;
      }
      case Transaction::Type::Broadcast: {
        // MCN-BC: the host replays the payload to every other DIMM,
        // point-to-point (no hardware broadcast support).
        ++statBroadcasts;
        auto remaining = std::make_shared<unsigned>(0);
        auto finish_sh = std::make_shared<EventCallback>(std::move(finish));
        memAccess(
            src, addr, bytes, /*is_write=*/false,
            [this, src, bytes, remaining, finish_sh]() mutable {
                for (DimmId d = 0; d < cfg.numDimms; ++d) {
                    if (d == src)
                        continue;
                    ++*remaining;
                    statBytesViaHost += bytes;
                    path.forwarder().copy(
                        src, d, bytes,
                        [remaining, finish_sh]() {
                            if (--*remaining == 0)
                                (*finish_sh)();
                        });
                }
                if (*remaining == 0)
                    (*finish_sh)();
            });
        break;
      }
      case Transaction::Type::SyncMessage: {
        statBytesViaHost += bytes;
        path.forwarder().copy(src, dst, bytes, std::move(finish));
        break;
      }
    }
}

namespace {

FabricFactory::Registrar regMcn("MCN",
    [](EventQueue &eq, const SystemConfig &cfg,
       std::vector<host::Channel *> channels, stats::Registry &reg)
        -> std::unique_ptr<Fabric> {
        return std::make_unique<McnFabric>(eq, cfg, std::move(channels),
                                       reg);
    });

} // namespace

} // namespace idc
} // namespace dimmlink
