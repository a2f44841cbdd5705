/**
 * @file
 * The inter-DIMM communication (IDC) fabric interface plus the shared
 * CPU-forwarding path. Four implementations mirror Table I:
 *
 *   McnFabric  - CPU-forwarding (MCN / UPMEM baseline)
 *   AimFabric  - dedicated multi-drop bus (AIM baseline)
 *   AbcFabric  - intra-channel broadcast (ABC-DIMM baseline)
 *   DlFabric   - DIMM-Link packet routing (this paper)
 */

#ifndef DIMMLINK_IDC_FABRIC_HH
#define DIMMLINK_IDC_FABRIC_HH

#include <functional>
#include <memory>
#include <string>

#include "common/config.hh"
#include "common/factory.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "host/channel.hh"
#include "host/forwarder.hh"
#include "host/polling.hh"
#include "sim/event_queue.hh"

namespace dimmlink {
namespace idc {

/** One inter-DIMM transaction submitted by a DIMM's Local MC. */
struct Transaction
{
    enum class Type {
        RemoteRead,  ///< Fetch @ref bytes from dst's DRAM into src.
        RemoteWrite, ///< Push @ref bytes from src into dst's DRAM.
        Broadcast,   ///< Deliver @ref bytes from src to every DIMM.
        SyncMessage, ///< Small control message src -> dst.
    };

    Type type = Type::RemoteRead;
    DimmId src = 0;
    DimmId dst = 0;
    /** DIMM-local address at the destination. */
    Addr addr = 0;
    std::uint32_t bytes = 64;
    /**
     * RemoteRead: data arrived back at src. RemoteWrite: data written
     * at dst. Broadcast: accepted by every DIMM. SyncMessage: arrived
     * at dst. Move-only, like every completion on the IDC path.
     */
    EventCallback onComplete;
};

/**
 * Abstract IDC fabric. The System wires in a memory-access callback so
 * remote requests exercise the destination DIMM's DRAM controller.
 */
class Fabric
{
  public:
    /** Perform @p bytes of DRAM access at DIMM @p dimm, then @p done. */
    using MemAccessFn =
        std::function<void(DimmId dimm, Addr addr, std::uint32_t bytes,
                           bool is_write, EventCallback done)>;

    Fabric(EventQueue &eq, const SystemConfig &cfg,
           stats::Registry &reg, std::string name);
    virtual ~Fabric() = default;

    virtual void submit(Transaction t) = 0;

    /** Kernel start/end hooks (polling engines run only in NA mode). */
    virtual void enterNmpMode() {}
    virtual void exitNmpMode() {}

    void setMemAccess(MemAccessFn f) { memAccess = std::move(f); }

    /**
     * The "distance" between DIMMs seen by the task mapper: 0 for
     * j == k, otherwise the relative cost of one remote access.
     */
    virtual double distance(DimmId j, DimmId k) const;

    /** Live gauges read by the observability sampler. */
    /** Jobs queued at the host forwarder (0 without a forward path). */
    virtual std::size_t forwardBacklog() { return 0; }
    /** DLL packets awaiting ACK across all retry engines. */
    virtual std::size_t dllInFlight() { return 0; }

    /** Multi-line diagnostic snapshot of in-flight state, printed by
     * the hang watchdog and the drained-queue panic path. */
    virtual std::string debugDump() { return ""; }

    /**
     * Subscribe to rack host availability transitions (the serving
     * circuit breaker's health feed). No-op on fabrics without a
     * rack layer; the DlFabric forwards to its InterHostFabric. The
     * callback is (host, is_gateway, up).
     */
    using HostAvailabilitySink =
        std::function<void(unsigned host, bool is_gateway, bool up)>;
    virtual void setHostAvailabilitySink(HostAvailabilitySink) {}

    const std::string &name() const { return name_; }

  protected:
    EventQueue &eventq;
    const SystemConfig &cfg;
    stats::Registry &registry;
    std::string name_;
    MemAccessFn memAccess;

    stats::Scalar &statTransactions;
    stats::Scalar &statBytesViaLink;
    stats::Scalar &statBytesViaHost;
    stats::Scalar &statBytesViaBus;
    stats::Scalar &statBroadcasts;
    stats::Distribution &statLatencyPs;
};

/**
 * The CPU-forwarding transport shared by MCN, ABC-DIMM (for P2P and
 * inter-channel traffic), and DIMM-Link (for inter-group traffic):
 * polling discovery followed by a host copy between channels and a
 * remote DRAM access.
 */
class CpuForwardPath
{
  public:
    CpuForwardPath(EventQueue &eq, const SystemConfig &cfg,
                   std::vector<host::Channel *> channels,
                   std::vector<DimmId> poll_targets,
                   stats::Registry &reg);

    /**
     * Queue @p job at polled target @p target; when polling discovers
     * the target, @p job runs with the host Forwarder available.
     */
    void request(DimmId target, EventCallback job);

    host::Forwarder &forwarder() { return fwd; }
    host::PollingEngine &polling() { return *poll; }

    void start() { poll->start(); }
    void stop();

  private:
    void onDiscover(DimmId target);

    EventQueue &eventq;
    host::Forwarder fwd;
    std::unique_ptr<host::PollingEngine> poll;
    std::vector<std::vector<EventCallback>> queued;
};

/**
 * The fabric registry: implementations register under the IdcMethod
 * toString() names ("MCN", "AIM", "ABC-DIMM", "DIMM-Link") from their
 * own translation units.
 */
using FabricFactory =
    Factory<Fabric, EventQueue &, const SystemConfig &,
            std::vector<host::Channel *>, stats::Registry &>;

/** Build the fabric registered under toString(cfg.idcMethod). */
std::unique_ptr<Fabric> makeFabric(EventQueue &eq,
                                   const SystemConfig &cfg,
                                   std::vector<host::Channel *> channels,
                                   stats::Registry &reg);

} // namespace idc

template <>
struct FactoryTraits<idc::Fabric>
{
    static constexpr const char *noun = "IDC fabric";
};

} // namespace dimmlink

#endif // DIMMLINK_IDC_FABRIC_HH
