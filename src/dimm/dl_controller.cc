#include "dimm/dl_controller.hh"

#include "common/log.hh"

namespace dimmlink {

DlController::DlController(EventQueue &eq, const std::string &name,
                           DimmId self_, Tick retry_timeout_ps,
                           unsigned max_retries, stats::Registry &reg,
                           unsigned window,
                           proto::ExhaustFallback fallback)
    : eventq(eq),
      name_(name),
      self(self_),
      retry(eq, retry_timeout_ps, max_retries, reg.group(name), window,
            fallback),
      receiver(reg.group(name), window),
      statPacketized(reg.group(name).scalar("packetized")),
      statDecoded(reg.group(name).scalar("decoded"))
{
}

std::uint8_t
DlController::allocTag()
{
    const std::uint8_t tag = nextTag;
    nextTag = static_cast<std::uint8_t>((nextTag + 1) & 0x3f);
    return tag;
}

void
DlController::onWireArrive(
    const std::vector<std::uint8_t> &wire, bool corrupted,
    std::function<void(const proto::Packet &)> send_control,
    std::function<void(proto::Packet)> deliver,
    std::function<void(proto::Packet)> stale)
{
    std::vector<proto::Packet> ready;
    std::vector<proto::Packet> behind;
    std::optional<proto::Packet> ctrl;
    receiver.onArrive(wire, corrupted, ready, ctrl,
                      stale ? &behind : nullptr);
    if (ctrl && send_control)
        send_control(*ctrl);
    for (auto &pkt : ready) {
        ++statDecoded;
        if (deliver)
            deliver(std::move(pkt));
    }
    for (auto &pkt : behind)
        stale(std::move(pkt));
}

void
DlController::skipReceive(std::uint8_t src, std::uint16_t seq,
                          std::function<void(proto::Packet)> deliver)
{
    std::vector<proto::Packet> ready;
    receiver.skipTo(src, seq, ready);
    for (auto &pkt : ready) {
        ++statDecoded;
        if (deliver)
            deliver(std::move(pkt));
    }
}

void
DlController::onControlArrive(const proto::Packet &ctrl)
{
    retry.onControl(ctrl);
}

void
DlController::pushPacket(std::vector<std::uint8_t> wire)
{
    packetBuf.push_back(std::move(wire));
}

std::optional<std::vector<std::uint8_t>>
DlController::popPacket()
{
    if (packetBuf.empty())
        return std::nullopt;
    auto wire = std::move(packetBuf.front());
    packetBuf.pop_front();
    return wire;
}

} // namespace dimmlink
