/**
 * @file
 * The Local Memory Controller of Fig. 6: accepts NMP-core requests
 * into a transaction buffer, decodes the target DIMM id, arbitrates
 * between the Local DDR Interface (rank-parallel DRAM controllers)
 * and the DL-Interface (the IDC fabric), and reorders completions
 * back to the cores via callbacks.
 */

#ifndef DIMMLINK_DIMM_LOCAL_MC_HH
#define DIMMLINK_DIMM_LOCAL_MC_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "dram/address_map.hh"
#include "dram/dram_controller.hh"
#include "idc/fabric.hh"
#include "sim/event_callback.hh"
#include "sim/event_queue.hh"

namespace dimmlink {

class LocalMc
{
  public:
    LocalMc(EventQueue &eq, const std::string &name, DimmId self,
            const SystemConfig &cfg, const dram::Timing &timing,
            const dram::GlobalAddressMap &gmap, stats::Registry &reg);

    /** Wire in the IDC fabric (DL-Interface). */
    void setFabric(idc::Fabric *f) { fabric = f; }

    /**
     * Core-side access path: global address, any length. Splits into
     * cache lines, routes local lines to the rank controllers and
     * remote spans to the fabric; @p done fires when all complete.
     */
    void access(Addr global, std::uint32_t bytes, bool is_write,
                EventCallback done);

    /** True when @p global maps to a different DIMM. */
    bool isRemote(Addr global) const
    {
        return gmap.dimmOf(global) != self;
    }

    /**
     * Fabric-side path: a remote DIMM's request arrived here and
     * needs @p bytes of local DRAM access at DIMM-local @p local.
     */
    void remoteAccess(Addr local, std::uint32_t bytes, bool is_write,
                      EventCallback done);

    /** Posted write (cache victim writeback): no completion needed. */
    void postedWrite(Addr global, std::uint32_t bytes);

    DimmId id() const { return self; }
    bool idle() const;

    /** Stats accessors used by the metric collectors. */
    double localBytes() const { return statLocalBytes.value(); }
    double remoteBytes() const { return statRemoteBytes.value(); }

  private:
    struct PendingLine
    {
        Addr local;
        bool isWrite;
        EventCallback done; ///< SBO; matches DramRequest::done.
    };

    /** Split a DIMM-local span into line accesses on the rank
     * controllers; @p done fires when the last line completes. */
    void dramAccess(Addr local, std::uint32_t bytes, bool is_write,
                    EventCallback done);
    /** One line of a multi-line access completed. */
    void lineDone(std::uint32_t span);

    void enqueueLine(Addr line_addr, bool is_write,
                     EventCallback done);
    void drainPending();

    unsigned rankOf(Addr local) const;
    Addr ctrlAddr(Addr local) const;

    EventQueue &eventq;
    DimmId self;
    const SystemConfig &cfg;
    const dram::GlobalAddressMap &gmap;
    unsigned lineBytes;
    idc::Fabric *fabric = nullptr;

    /** One single-rank controller per physical rank: the NMP cores
     * exploit rank-level parallelism (Table V). */
    std::vector<std::unique_ptr<dram::DramController>> rankCtrl;

    /** The transaction buffer (Fig. 6, component 1). */
    Ring<PendingLine> pending;

    /**
     * Multi-line accesses in flight: the lines still outstanding and
     * the access's completion. Each line's DRAM completion captures
     * only its span's index (slots are recycled through freeSpans),
     * so the fan-in needs no shared heap state.
     */
    struct Span
    {
        std::size_t remaining = 0;
        EventCallback done;
    };
    std::vector<Span> spans;
    std::vector<std::uint32_t> freeSpans;

    stats::Scalar &statLocalReads;
    stats::Scalar &statLocalWrites;
    stats::Scalar &statRemoteReads;
    stats::Scalar &statRemoteWrites;
    stats::Scalar &statLocalBytes;
    stats::Scalar &statRemoteBytes;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_LOCAL_MC_HH
