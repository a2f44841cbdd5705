/**
 * @file
 * A unidirectional SerDes link of the DL-Bridge. Serializes one
 * message at a time at the configured bandwidth, then presents it to
 * the downstream router after the wire latency.
 */

#ifndef DIMMLINK_NOC_LINK_HH
#define DIMMLINK_NOC_LINK_HH

#include <functional>
#include <memory>

#include "common/ring.hh"
#include "common/stats.hh"
#include "noc/message.hh"
#include "sim/event_queue.hh"

namespace dimmlink {

namespace fault {
class FaultModel;
} // namespace fault

namespace obs {
class Tracer;
} // namespace obs

namespace noc {

class Link
{
  public:
    /**
     * @param gbps        per-direction bandwidth (GRS: 25 GB/s).
     * @param wire_ps     SerDes + PCB trace latency per traversal.
     * @param flit_bits   flit width (128 in the DL protocol).
     */
    Link(EventQueue &eq, std::string name, double gbps, Tick wire_ps,
         unsigned flit_bits, stats::Group &sg);
    ~Link();

    /**
     * Attach a fault model; every subsequent transmit() passes
     * through it. nullptr detaches.
     */
    void setFaultModel(std::unique_ptr<fault::FaultModel> m);

    /** Earliest tick a new transmission may begin. */
    Tick freeAt() const { return busyUntil; }

    /** Ticks to push @p flits flits through the serializer. */
    Tick serializationTime(unsigned flits) const;

    /** Called with the message at the downstream end of the link. */
    using ArriveFn = std::function<void(Message)>;

    /**
     * Begin transmitting at max(now, freeAt()). @p arrive fires at the
     * downstream end after serialization + wire latency.
     * @return the tick at which the tail flit arrives downstream.
     */
    Tick transmit(Message msg, ArriveFn arrive);

    const std::string &name() const { return name_; }
    double bandwidthGBps() const { return gbps_; }

  private:
    /** One message on the wire, waiting for its arrival event. */
    struct InFlight
    {
        Message msg;
        ArriveFn arrive;
    };

    /** Hand the oldest in-flight message to its arrive callback. */
    void arriveFront();

    EventQueue &eventq;
    std::string name_;
    double gbps_;
    Tick wireLatency;
    unsigned flitBytes;
    Tick busyUntil = 0;
    /**
     * Messages on the wire, oldest first. Arrival ticks never
     * decrease (busyUntil only grows and the wire latency is fixed)
     * and same-tick arrivals fire in scheduling order, so each arrival
     * event takes the front: the event itself captures only the link.
     */
    Ring<InFlight> inFlight;

    stats::Scalar &statFlits;
    stats::Scalar &statMessages;
    stats::Scalar &statBusyPs;

    stats::Scalar &statFaultCorrupted;
    stats::Scalar &statFaultStalledPs;
    stats::Scalar &statFaultDeratedPs;

    std::unique_ptr<fault::FaultModel> faultModel;

    obs::Tracer *tr = nullptr; ///< Null unless noc tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmTx = 0, nmOutage = 0, nmCorrupt = 0;
};

} // namespace noc
} // namespace dimmlink

#endif // DIMMLINK_NOC_LINK_HH
