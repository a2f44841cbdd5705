/**
 * @file
 * An NMP core in the DIMM's centralized buffer chip. Executes one
 * software thread's operation stream with a bounded window of
 * outstanding memory requests, private-L1 / shared-L2 caching under
 * software-assisted coherence, and direct measurement of the paper's
 * "non-overlapped IDC cycles" (stall time attributable to remote
 * requests).
 */

#ifndef DIMMLINK_DIMM_NMP_CORE_HH
#define DIMMLINK_DIMM_NMP_CORE_HH

#include <functional>
#include <memory>

#include "common/config.hh"
#include "common/stats.hh"
#include "dimm/cache.hh"
#include "dimm/local_mc.hh"
#include "dimm/op.hh"
#include "dimm/reliability.hh"
#include "sim/clocked.hh"
#include "sync/barrier.hh"

namespace dimmlink {

namespace obs {
class Tracer;
} // namespace obs

class NmpCore : public Clocked
{
  public:
    NmpCore(EventQueue &eq, const std::string &name, DimmId dimm,
            CoreId core, const SystemConfig &cfg, LocalMc &mc,
            Cache *l1, Cache *l2, stats::Registry &reg);

    void setBarrier(BarrierEndpoint *b) { barrier = b; }

    /** Explicit broadcast API (wired by the Dimm to the fabric). */
    using BroadcastFn =
        std::function<void(Addr, std::uint64_t, EventCallback)>;
    void setBroadcaster(BroadcastFn f) { broadcaster = std::move(f); }

    /** Per-reference traffic probe for the task-mapping profiler. */
    using TrafficProbe =
        std::function<void(ThreadId, DimmId, std::uint32_t)>;
    void setTrafficProbe(TrafficProbe p) { probe = std::move(p); }

    /** Home DIMM lookup for probe/stall attribution. */
    using HomeFn = std::function<DimmId(Addr)>;
    void setHomeLookup(HomeFn f) { homeOf = std::move(f); }

    /**
     * Arm the request-level reliability engine (docs/serving.md):
     * deadlines, retry/backoff behind the circuit breaker, hedging
     * and load shedding. @p view is the rack host-health view
     * (empty on single-host systems: the breaker then never trips)
     * and @p my_host the host owning this DIMM. All
     * pointees outlive the core (System owns them).
     */
    void
    setReliability(const serve_rel::Params *params,
                   const serve_rel::HostHealthView *view,
                   unsigned my_host)
    {
        rel = params;
        hostView = view;
        myHost = my_host;
    }

    /** Launch a thread; @p on_done fires after its Done op retires. */
    void run(ThreadId tid, std::unique_ptr<ThreadProgram> prog,
             std::function<void()> on_done);

    /** Abort the current thread (migration-by-restart, §IV-B). */
    void cancel();

    bool busy() const { return state != State::Idle; }
    DimmId dimmId() const { return dimm; }
    CoreId coreId() const { return core; }
    ThreadId threadId() const { return tid_; }

    /** Non-overlapped IDC picoseconds (remote-attributed stalls). */
    double idcStallPs() const { return statStallRemote.value(); }

  private:
    enum class State {
        Idle,
        Ready,     ///< advance() is driving the op stream.
        Computing, ///< Busy for a compute (or issue-debt) interval.
        StallMshr, ///< Out of MSHRs; waiting for any response.
        Fence,     ///< Draining all outstanding requests.
        Barrier,   ///< Waiting for barrier release.
        Broadcast, ///< Waiting for broadcast completion.
        Waiting,   ///< Idle until an open-loop request's arrival.
        Backoff,   ///< Reliability: delaying a retry after fast-fail.
        HedgeFence,///< Reliability: racing primary vs hedge fanouts.
    };

    void advance();
    void issueRef(const MemRef &ref);
    void onResponse(bool was_remote, unsigned side);
    void onStaleResponse();
    void enterStall(State s);
    void exitStall();
    void finishOp();

    // Reliability engine (no-ops unless setReliability armed it).
    bool relReqStart();
    void abortInFlight();
    void launchHedge();
    void settleHedge(unsigned winner);

    DimmId dimm;
    CoreId core;
    const SystemConfig &cfg;
    LocalMc &mc;
    Cache *l1;
    Cache *l2;
    BarrierEndpoint *barrier = nullptr;
    BroadcastFn broadcaster;
    TrafficProbe probe;
    HomeFn homeOf;

    State state = State::Idle;
    std::unique_ptr<ThreadProgram> prog;
    ThreadId tid_ = 0;
    std::function<void()> onDone;
    std::uint64_t runGeneration = 0;

    Op op;
    std::size_t refIdx = 0;
    bool haveOp = false;
    std::uint64_t issueDebt = 0;

    unsigned outstanding = 0;
    unsigned remoteOutstanding = 0;
    Tick stallStart = 0;
    bool stallRemote = false;
    bool barrierAfterFence = false;
    bool broadcastAfterFence = false;

    /** Tick this thread's run() began (serving arrivals are relative
     * to it) and the in-flight request's latency-clock start. */
    Tick runStart = 0;
    Tick reqStart = 0;

    // --- Request-level reliability state. Dormant until
    // setReliability().
    const serve_rel::Params *rel = nullptr;
    const serve_rel::HostHealthView *hostView = nullptr;
    unsigned myHost = 0;
    serve_rel::Backoff backoff;
    serve_rel::CircuitBreaker breaker;
    /** MSHR slots leaked by aborted/hedge-losing fanouts: their
     * responses are still in flight (and still occupy MSHRs, so the
     * issue cap counts them) but no longer gate fences. */
    unsigned stale = 0;
    /** Bumped whenever in-flight responses are disowned; a response
     * whose captured epoch mismatches takes the stale path. */
    std::uint64_t issueEpoch = 0;
    /** Identifies the current request to deadline/hedge timers. */
    std::uint64_t reqSeq = 0;
    bool reqInProgress = false;
    bool reqAborted = false;
    bool shedChecked = false;
    bool deadlineArmed = false;
    bool reqIsTrial = false;   ///< Breaker half-open trial request.
    int breakerTarget = -1;    ///< Host the breaker admitted us to.
    unsigned attempts = 0;     ///< Fast-fail retries so far.
    bool hedgeLaunched = false;
    unsigned issueSide = 0;    ///< 0 = primary, 1 = hedge fanout.
    unsigned outSide[2] = {0, 0};
    unsigned remoteSide[2] = {0, 0};

    stats::Group &statGroup;
    stats::Scalar &statInstructions;
    stats::Scalar &statMemRefs;
    stats::Scalar &statRemoteRefs;
    stats::Scalar &statComputePs;
    stats::Scalar &statStallLocal;
    stats::Scalar &statStallRemote;
    stats::Scalar &statBarrierPs;
    stats::Scalar &statBroadcasts;
    stats::Scalar &statRequests;
    stats::Scalar &statReqWaitPs;
    // Reliability-layer request outcomes (zero unless it is armed).
    stats::Scalar &relDeadlineMiss;
    stats::Scalar &relShed;
    stats::Scalar &relRetries;
    stats::Scalar &relFastFails;
    stats::Scalar &relFailed;
    stats::Scalar &relHedges;
    stats::Scalar &relHedgeWins;
    /** Request-latency histogram, created when the core retires its
     * first serving request. Lazy for memory: latBuckets counters of
     * 8 B each (16 KiB at the default 2048) on every core would add
     * about 1 MiB to a 64-core machine that serves nothing. */
    stats::Histogram *reqHist = nullptr;

    obs::Tracer *tr = nullptr; ///< Null unless core tracing is on.
    std::uint32_t trk = 0;
    std::uint16_t nmCompute = 0, nmStallLocal = 0, nmStallRemote = 0,
                  nmBarrier = 0, nmBroadcast = 0;
};

} // namespace dimmlink

#endif // DIMMLINK_DIMM_NMP_CORE_HH
