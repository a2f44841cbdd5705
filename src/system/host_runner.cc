#include "system/host_runner.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/log.hh"
#include "sim/clocked.hh"
#include "workloads/serving.hh"

namespace dimmlink {

/**
 * One OoO-approximated host core: same op semantics as an NMP core,
 * but with host frequency/IPC, the host cache hierarchy, and
 * channel-based DRAM access.
 */
class HostRunner::HostCore : public Clocked
{
  public:
    HostCore(HostRunner &owner, unsigned idx)
        : Clocked(owner.eventq,
                  "hostcore" + std::to_string(idx),
                  owner.cfg.host.coreFreqMHz),
          owner(owner),
          idx(idx),
          statGroup(owner.registry.group(name())),
          statInstructions(statGroup.scalar("instructions")),
          statStallPs(statGroup.scalar("stallPs")),
          statRequests(statGroup.scalar("requests"))
    {
    }

    void
    run(std::unique_ptr<ThreadProgram> program,
        std::function<void()> on_done)
    {
        prog = std::move(program);
        onDone = std::move(on_done);
        haveOp = false;
        outstanding = 0;
        issueDebt = 0;
        runStart = now();
        reqStart = now();
        state = State::Ready;
        queue().schedule(clockEdge(), [this] { advance(); },
                         EventPriority::Core);
    }

    bool busy() const { return state != State::Idle; }

  private:
    enum class State {
        Idle, Ready, Computing, StallMshr, Fence, Barrier, Broadcast,
        Waiting
    };

    void
    onResponse()
    {
        --outstanding;
        if (state == State::StallMshr ||
            (state == State::Fence && outstanding == 0)) {
            statStallPs += static_cast<double>(now() - stallStart);
            state = State::Ready;
            advance();
        }
    }

    void
    issueRef(const MemRef &ref)
    {
        ++statInstructions;
        ++outstanding;
        owner.memAccess(ref.addr, ref.bytes, ref.isWrite, ref.cls,
                        idx, [this] { onResponse(); });
    }

    void
    advance()
    {
        while (state == State::Ready) {
            if (issueDebt > 0) {
                const auto cyc = static_cast<Cycles>(std::max(
                    1.0, static_cast<double>(issueDebt) /
                             owner.cfg.host.computeIpc));
                issueDebt = 0;
                state = State::Computing;
                scheduleCycles(cyc,
                               [this] {
                                   state = State::Ready;
                                   advance();
                               },
                               EventPriority::Core);
                return;
            }
            if (!haveOp) {
                op = prog->next();
                haveOp = true;
                refIdx = 0;
            }
            switch (op.kind) {
              case Op::Kind::Compute: {
                statInstructions +=
                    static_cast<double>(op.instructions);
                const auto cyc = std::max<Cycles>(
                    1, static_cast<Cycles>(
                           static_cast<double>(op.instructions) /
                           owner.cfg.host.computeIpc + 0.5));
                state = State::Computing;
                scheduleCycles(cyc,
                               [this] {
                                   state = State::Ready;
                                   haveOp = false;
                                   advance();
                               },
                               EventPriority::Core);
                return;
              }
              case Op::Kind::Mem:
              // The host baseline has no reliability engine: a hedged
              // batch runs as its primary fanout (fenced), and the
              // replica refs are ignored. memHedged() always sets
              // fenceAfter, so the shared path below drains it.
              case Op::Kind::HedgedMem: {
                while (refIdx < op.refs.size()) {
                    if (outstanding >= mshrs) {
                        state = State::StallMshr;
                        stallStart = now();
                        return;
                    }
                    issueRef(op.refs[refIdx]);
                    ++refIdx;
                    ++issueDebt;
                }
                if (op.fenceAfter && outstanding > 0) {
                    state = State::Fence;
                    stallStart = now();
                    return;
                }
                haveOp = false;
                break;
              }
              case Op::Kind::Barrier: {
                if (outstanding > 0) {
                    state = State::Fence;
                    stallStart = now();
                    return;
                }
                state = State::Barrier;
                owner.coreBarrier([this] {
                    state = State::Ready;
                    haveOp = false;
                    advance();
                });
                return;
              }
              case Op::Kind::Broadcast: {
                if (outstanding > 0) {
                    state = State::Fence;
                    stallStart = now();
                    return;
                }
                state = State::Broadcast;
                owner.broadcast(op.bcastAddr, op.bcastBytes, [this] {
                    state = State::Ready;
                    haveOp = false;
                    advance();
                });
                return;
              }
              case Op::Kind::ReqStart: {
                // Same semantics as the NMP core: open-loop arrivals
                // are relative to runStart and start the latency
                // clock even when they are already in the past.
                const Tick arrival = op.tickArg == Op::reqNow
                                         ? now()
                                         : runStart + op.tickArg;
                reqStart = arrival;
                if (arrival > now()) {
                    state = State::Waiting;
                    queue().schedule(arrival,
                                     [this] {
                                         state = State::Ready;
                                         haveOp = false;
                                         advance();
                                     },
                                     EventPriority::Core);
                    return;
                }
                haveOp = false;
                break;
              }
              case Op::Kind::ReqEnd: {
                if (outstanding > 0) {
                    state = State::Fence;
                    stallStart = now();
                    return;
                }
                if (!reqHist)
                    reqHist = &statGroup.histogram(
                        "reqLatencyPs",
                        static_cast<double>(
                            owner.cfg.serve.latBucketPs),
                        owner.cfg.serve.latBuckets);
                reqHist->sample(
                    static_cast<double>(now() - reqStart));
                ++statRequests;
                haveOp = false;
                break;
              }
              case Op::Kind::Done: {
                state = State::Idle;
                prog.reset();
                haveOp = false;
                auto cb = std::move(onDone);
                onDone = nullptr;
                if (cb)
                    cb();
                return;
              }
            }
        }
    }

    HostRunner &owner;
    unsigned idx;
    static constexpr unsigned mshrs = 16;

    State state = State::Idle;
    std::unique_ptr<ThreadProgram> prog;
    std::function<void()> onDone;
    Op op;
    std::size_t refIdx = 0;
    bool haveOp = false;
    std::uint64_t issueDebt = 0;
    unsigned outstanding = 0;
    Tick stallStart = 0;
    Tick runStart = 0;
    Tick reqStart = 0;

    stats::Group &statGroup;
    stats::Scalar &statInstructions;
    stats::Scalar &statStallPs;
    stats::Scalar &statRequests;
    /** Created at the first retired request. Lazy for memory, as on
     * the NMP cores: latBuckets 8-byte counters per core. */
    stats::Histogram *reqHist = nullptr;
};

HostRunner::HostRunner(SystemConfig cfg_) : cfg(std::move(cfg_))
{
    gmap = std::make_unique<dram::GlobalAddressMap>(
        cfg.numDimms, cfg.dimm.capacityBytes);
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string name = "host.channel" + std::to_string(c);
        channels.push_back(std::make_unique<host::Channel>(
            eventq, name, cfg.host.channelGBps,
            registry.group(name)));
    }
    const dram::Timing timing = cfg.dramTiming();
    dramPending.resize(cfg.numChannels);
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        const std::string n = "host.dram" + std::to_string(c);
        dramCtrl.push_back(std::make_unique<dram::DramController>(
            eventq, n, timing, /*num_ranks=*/2, cfg.host.lineBytes,
            registry.group(n), cfg.dramScheduler));
        dramCtrl.back()->setUnblockCallback(
            [this, c] { drainDram(static_cast<ChannelId>(c)); });
    }
    llc = std::make_unique<Cache>(
        "host.llc", cfg.host.llcBytes, cfg.host.llcAssoc,
        cfg.host.lineBytes, registry.group("host.llc"));
    for (unsigned i = 0; i < cfg.host.numCores; ++i) {
        l1s.push_back(std::make_unique<Cache>(
            "hostcore" + std::to_string(i) + ".l1",
            cfg.host.l1Bytes, cfg.host.l1Assoc, cfg.host.lineBytes,
            registry.group("hostcore" + std::to_string(i) + ".l1")));
        cores.push_back(std::make_unique<HostCore>(*this, i));
    }
}

HostRunner::~HostRunner() = default;

void
HostRunner::coreBarrier(std::function<void()> release)
{
    barrierWaiters.push_back(std::move(release));
    if (++barrierArrived < cores.size())
        return;
    barrierArrived = 0;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    eventq.scheduleIn(barrierLatencyPs,
                      [waiters = std::move(waiters)] {
                          for (const auto &w : waiters)
                              w();
                      },
                      EventPriority::Core);
}

void
HostRunner::dramLine(ChannelId ch, Addr addr, bool is_write,
                     std::function<void()> done)
{
    // DRAM command/array timing first, then the data burst crosses
    // the shared channel.
    auto after = [this, ch, done = std::move(done)]() mutable {
        if (!done)
            return;
        const Tick end =
            channels[ch]->transfer(cfg.host.lineBytes);
        eventq.schedule(end, std::move(done),
                        EventPriority::Delivery);
    };
    auto submit = [this, ch, addr, is_write,
                   after = std::move(after)]() mutable {
        dram::DramRequest req;
        req.local = addr;
        req.isWrite = is_write;
        req.done = std::move(after);
        dramCtrl[ch]->enqueue(std::move(req));
    };
    if (dramCtrl[ch]->full(is_write)) {
        dramPending[ch].push_back(std::move(submit));
        return;
    }
    submit();
}

void
HostRunner::drainDram(ChannelId ch)
{
    while (!dramPending[ch].empty()) {
        if (dramCtrl[ch]->full(false) || dramCtrl[ch]->full(true))
            return;
        auto job = std::move(dramPending[ch].front());
        dramPending[ch].pop_front();
        job();
    }
}

void
HostRunner::memAccess(Addr addr, std::uint32_t bytes, bool is_write,
                      DataClass cls, unsigned core_idx,
                      std::function<void()> done)
{
    const unsigned line = cfg.host.lineBytes;
    const Addr first = roundDown(addr, line);
    const Addr last = roundDown(addr + bytes - 1, line);

    auto lines = static_cast<std::size_t>((last - first) / line) + 1;
    auto remaining = std::make_shared<std::size_t>(lines);
    auto done_sh =
        std::make_shared<std::function<void()>>(std::move(done));
    auto finish_line = [remaining, done_sh] {
        if (--*remaining == 0 && *done_sh)
            (*done_sh)();
    };

    for (Addr a = first; a <= last; a += line) {
        // Private data sits in the core's L1 (hardware coherence
        // makes everything cacheable on the host; shared classes go
        // to the inclusive LLC the cores agree on).
        if (cls == DataClass::Private) {
            const Cache::Result r1 =
                l1s[core_idx]->access(a, is_write);
            if (r1.hit) {
                eventq.scheduleIn(cfg.host.l1LatencyPs, finish_line,
                                  EventPriority::Delivery);
                continue;
            }
        }
        const Cache::Result r2 = llc->access(a, is_write);
        if (r2.hit) {
            eventq.scheduleIn(cfg.host.llcLatencyPs, finish_line,
                              EventPriority::Delivery);
            continue;
        }
        if (r2.writeback) {
            // Posted victim writeback: bus plus a DRAM write.
            const ChannelId wch =
                cfg.channelOf(gmap->dimmOf(r2.victimAddr));
            channels[wch]->transfer(line);
            dramLine(wch, r2.victimAddr, /*is_write=*/true, nullptr);
        }
        const ChannelId ch = cfg.channelOf(gmap->dimmOf(a));
        dramLine(ch, a, /*is_write=*/false, finish_line);
    }
}

void
HostRunner::broadcast(Addr addr, std::uint64_t bytes,
                      std::function<void()> done)
{
    // A CPU "broadcast" is a memcpy into every DIMM's local copy.
    (void)addr;
    Tick last = eventq.now();
    for (unsigned d = 0; d < cfg.numDimms; ++d) {
        const Tick end =
            channels[cfg.channelOf(static_cast<DimmId>(d))]
                ->transfer(bytes);
        last = std::max(last, end);
    }
    eventq.schedule(last, std::move(done), EventPriority::Delivery);
}

RunResult
HostRunner::run(workloads::Workload &wl)
{
    if (wl.params().numThreads != cfg.host.numCores)
        fatal("host baseline expects %u threads, workload has %u",
              cfg.host.numCores, wl.params().numThreads);

    threadsDone = 0;
    allDone = false;
    barrierArrived = 0;
    barrierWaiters.clear();

    const double instr0 =
        registry.sumScalar("hostcore", "instructions");
    const Tick start = eventq.now();

    for (unsigned i = 0; i < cores.size(); ++i) {
        cores[i]->run(wl.program(static_cast<ThreadId>(i)), [this] {
            if (++threadsDone == cores.size())
                allDone = true;
        });
    }

    while (!allDone && eventq.step()) {
    }
    if (!allDone)
        panic("host event queue drained before the kernel finished");

    RunResult r;
    r.kernelTicks = eventq.now() - start;
    r.coreTimePs =
        static_cast<double>(r.kernelTicks) * cores.size();
    r.instructions = static_cast<std::uint64_t>(
        registry.sumScalar("hostcore", "instructions") - instr0);
    r.verified = wl.verify();
    workloads::serving::aggregate(registry, cfg, r.kernelTicks);
    return r;
}

} // namespace dimmlink
