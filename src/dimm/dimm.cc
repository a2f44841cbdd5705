#include "dimm/dimm.hh"

#include "common/log.hh"

namespace dimmlink {

Dimm::Dimm(EventQueue &eq, DimmId id, const SystemConfig &cfg,
           const dram::Timing &timing,
           const dram::GlobalAddressMap &gmap, stats::Registry &reg)
    : id_(id)
{
    const std::string base = "dimm" + std::to_string(id);

    mc = std::make_unique<LocalMc>(eq, base + ".mc", id, cfg, timing,
                                   gmap, reg);
    dlc = std::make_unique<DlController>(
        eq, base + ".dlc", id, cfg.link.retryTimeoutPs,
        cfg.link.maxRetries, reg, cfg.link.retryWindow);

    l2 = std::make_unique<Cache>(base + ".l2", cfg.dimm.l2Bytes,
                                 cfg.dimm.l2Assoc, cfg.dimm.lineBytes,
                                 reg.group(base + ".l2"));

    for (unsigned c = 0; c < cfg.dimm.numCores; ++c) {
        const std::string cname =
            base + ".core" + std::to_string(c);
        l1s.push_back(std::make_unique<Cache>(
            cname + ".l1", cfg.dimm.l1Bytes, cfg.dimm.l1Assoc,
            cfg.dimm.lineBytes, reg.group(cname + ".l1")));
        cores.push_back(std::make_unique<NmpCore>(
            eq, cname, id, static_cast<CoreId>(c), cfg, *mc,
            l1s.back().get(), l2.get(), reg));
    }
}

void
Dimm::connect(idc::Fabric *fabric, BarrierEndpoint *barrier,
              const dram::GlobalAddressMap *gmap)
{
    mc->setFabric(fabric);
    for (auto &core : cores) {
        core->setBarrier(barrier);
        core->setHomeLookup(
            [gmap](Addr a) { return gmap->dimmOf(a); });
        core->setBroadcaster(
            [this, fabric, gmap](Addr addr, std::uint64_t bytes,
                                 EventCallback done) {
                idc::Transaction t;
                t.type = idc::Transaction::Type::Broadcast;
                t.src = id_;
                t.dst = invalidDimm;
                t.addr = gmap->localOf(addr);
                t.bytes = static_cast<std::uint32_t>(bytes);
                t.onComplete = std::move(done);
                fabric->submit(std::move(t));
            });
    }
}

void
Dimm::flushCaches()
{
    for (auto &l1 : l1s) {
        const unsigned dirty = l1->flush();
        // Dirty L1 lines spill into the L2's stats-free flush; the
        // final DRAM writeback traffic is modest and posted.
        (void)dirty;
    }
    l2->flush();
}

bool
Dimm::quiescent() const
{
    for (const auto &core : cores)
        if (core->busy())
            return false;
    return mc->idle();
}

} // namespace dimmlink
