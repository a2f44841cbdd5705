#include "noc/link.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/types.hh"
#include "fault/fault_model.hh"
#include "obs/tracer.hh"

namespace dimmlink {
namespace noc {

Link::Link(EventQueue &eq, std::string name, double gbps, Tick wire_ps,
           unsigned flit_bits, stats::Group &sg)
    : eventq(eq),
      name_(std::move(name)),
      gbps_(gbps),
      wireLatency(wire_ps),
      flitBytes(flit_bits / 8),
      statFlits(sg.scalar("flits")),
      statMessages(sg.scalar("messages")),
      statBusyPs(sg.scalar("busyPs")),
      statFaultCorrupted(sg.scalar("faultCorrupted")),
      statFaultStalledPs(sg.scalar("faultStalledPs")),
      statFaultDeratedPs(sg.scalar("faultDeratedPs"))
{
    if (gbps <= 0)
        fatal("link %s: non-positive bandwidth", name_.c_str());
    if (auto *t = eq.tracer(); t && t->enabled(obs::CatNoc)) {
        tr = t;
        trk = t->track(name_, obs::CatNoc);
        nmTx = t->intern("tx");
        nmOutage = t->intern("outage");
        nmCorrupt = t->intern("corrupt");
    }
}

Link::~Link() = default;

void
Link::setFaultModel(std::unique_ptr<fault::FaultModel> m)
{
    faultModel = std::move(m);
}

Tick
Link::serializationTime(unsigned flits) const
{
    return serializationTicks(
        static_cast<std::uint64_t>(flits) * flitBytes, gbps_);
}

Tick
Link::transmit(Message msg, ArriveFn arrive)
{
    Tick start = std::max(eventq.now(), busyUntil);
    Tick ser = serializationTime(msg.flits);
    Tick stall_begin = 0, stall_ps = 0;
    bool corrupt_hit = false;
    if (faultModel) {
        const auto bits = static_cast<unsigned>(
            msg.wire && !msg.wire->empty()
                ? msg.wire->size() * 8
                : static_cast<std::size_t>(msg.flits) * flitBytes * 8);
        const auto effect = faultModel->onTransmit(start, bits, msg);
        if (effect.stallPs > 0) {
            stall_begin = start;
            stall_ps = effect.stallPs;
            start += effect.stallPs;
            statFaultStalledPs += static_cast<double>(effect.stallPs);
        }
        if (effect.serScale != 1.0) {
            const auto derated = static_cast<Tick>(
                static_cast<double>(ser) * effect.serScale + 0.5);
            statFaultDeratedPs += static_cast<double>(derated - ser);
            ser = derated;
        }
        if (effect.corrupted) {
            msg.corrupted = true;
            corrupt_hit = true;
            ++statFaultCorrupted;
        }
    }
    if (tr) {
        tr->complete(trk, nmTx, start, ser);
        if (stall_ps > 0)
            tr->complete(trk, nmOutage, stall_begin, stall_ps);
        if (corrupt_hit)
            tr->instant(trk, nmCorrupt, start, msg.flits);
    }
    busyUntil = start + ser;
    statFlits += msg.flits;
    ++statMessages;
    statBusyPs += static_cast<double>(ser);
    const Tick arrival = busyUntil + wireLatency;
    ++msg.hops;
    inFlight.push_back(InFlight{std::move(msg), std::move(arrive)});
    eventq.schedule(arrival, [this] { arriveFront(); },
                    EventPriority::Delivery);
    return arrival;
}

void
Link::arriveFront()
{
    InFlight f = std::move(inFlight.front());
    inFlight.pop_front();
    f.arrive(std::move(f.msg));
}

} // namespace noc
} // namespace dimmlink
