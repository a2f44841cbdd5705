/**
 * @file
 * The functional model of one DIMM's DL-Controller (Fig. 6, right):
 * the NW-Interface (packet generation/decoding with CRC), the Packet
 * Buffer the host reads during CPU-forwarding, the Polling Registers
 * the polling checker exposes, and the DLL retry machinery.
 *
 * The timing of packet transport lives in idc::DlFabric (which models
 * the routers, links, polling and forwarding); this class provides
 * the bit-exact functional path, exercised by the unit tests and the
 * prototype-latency bench, and backs the fabric's per-DIMM state.
 */

#ifndef DIMMLINK_DIMM_DL_CONTROLLER_HH
#define DIMMLINK_DIMM_DL_CONTROLLER_HH

#include <deque>
#include <functional>
#include <optional>

#include "common/stats.hh"
#include "proto/codec.hh"
#include "proto/dll.hh"
#include "sim/event_queue.hh"

namespace dimmlink {

class DlController
{
  public:
    DlController(EventQueue &eq, const std::string &name, DimmId self,
                 Tick retry_timeout_ps, unsigned max_retries,
                 stats::Registry &reg,
                 unsigned window = proto::RetrySender::defaultWindow,
                 proto::ExhaustFallback fallback =
                     proto::ExhaustFallback::Panic);

    DimmId id() const { return self; }

    /** Allocate a transaction TAG (6-bit, recycled). */
    std::uint8_t allocTag();

    /**
     * Packetize a remote request/response and hand the wire image to
     * @p transmit under DLL retry protection. @p transmit is called as
     * `transmit(const proto::Packet &, std::vector<std::uint8_t>)` with
     * the sequence-stamped packet plus its freshly encoded wire image
     * — fresh on every retry, so a retransmission never re-sends a
     * corrupted buffer. @p on_acked fires when the destination's ACK
     * returns; @p on_failed (optional) fires when the retry budget is
     * exhausted, instead of panicking. The retry engine stores
     * @p transmit wrapped in one std::function, so a callable that
     * captures only a pointer and a handle stays allocation-free.
     */
    template <typename Transmit>
    void
    sendReliable(proto::Packet pkt, Transmit transmit,
                 std::function<void()> on_acked,
                 std::function<void()> on_failed = nullptr)
    {
        ++statPacketized;
        retry.send(std::move(pkt),
                   [tx = std::move(transmit)](const proto::Packet &p) {
                       tx(p, proto::encode(p));
                   },
                   std::move(on_acked), std::move(on_failed));
    }

    /**
     * A wire image arrived from the bridge. Validates CRC, emits the
     * ACK/NACK through @p send_control, and hands packets that became
     * deliverable (in per-source sequence order) to @p deliver.
     * @param corrupted inject a bit flip before validation (tests).
     */
    void onWireArrive(const std::vector<std::uint8_t> &wire,
                      bool corrupted,
                      std::function<void(const proto::Packet &)>
                          send_control,
                      std::function<void(proto::Packet)> deliver,
                      std::function<void(proto::Packet)> stale = nullptr);

    /**
     * The peer retired sequence @p seq of @p src's stream after retry
     * exhaustion (the payload completed out-of-band, or was dropped on
     * purpose): advance the receive stream past the permanent gap so
     * later sequences do not wait on it forever. Held packets the skip
     * releases flow through @p deliver in order.
     */
    void skipReceive(std::uint8_t src, std::uint16_t seq,
                     std::function<void(proto::Packet)> deliver);

    /** Feed an arriving DllAck/DllNack to the retry state. */
    void onControlArrive(const proto::Packet &ctrl);

    /** Host-visible polling registers: pending forward requests. */
    unsigned pollingCount() const { return pollingRegs; }
    void raiseForward() { ++pollingRegs; }
    /** The host's polling checker read and claimed the requests. */
    unsigned
    pollClear()
    {
        const unsigned n = pollingRegs;
        pollingRegs = 0;
        return n;
    }

    /** Packet buffer the host reads/writes during forwarding. */
    void pushPacket(std::vector<std::uint8_t> wire);
    std::optional<std::vector<std::uint8_t>> popPacket();
    std::size_t packetBufferDepth() const { return packetBuf.size(); }

    std::size_t retryInFlight() const { return retry.inFlight(); }
    /** Sends waiting for the retry window to open. */
    std::size_t retryQueued() const { return retry.queued(); }
    /** Out-of-order packets held in the receive reorder buffer. */
    std::size_t receiverBuffered() const
    {
        return receiver.bufferedPackets();
    }

  private:
    EventQueue &eventq;
    std::string name_;
    DimmId self;
    unsigned pollingRegs = 0;
    std::deque<std::vector<std::uint8_t>> packetBuf;
    std::uint8_t nextTag = 0;

    proto::RetrySender retry;
    proto::RetryReceiver receiver;

    stats::Scalar &statPacketized;
    stats::Scalar &statDecoded;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_DL_CONTROLLER_HH
