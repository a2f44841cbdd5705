/**
 * @file
 * Key-value serving workload (docs/serving.md): GET/PUT requests over
 * a value store block-partitioned across the DIMMs. Keys follow the
 * Zipfian popularity of serve.zipfTheta, so hot keys concentrate on a
 * few home DIMMs and most requests touch a foreign value -- the
 * request-level analogue of the random-access microbenchmarks. PUTs
 * XOR a deterministic mix into the value so concurrent functional
 * updates commute with the precomputed reference.
 */

#include <algorithm>

#include "workloads/arrivals.hh"
#include "workloads/op_stream.hh"
#include "workloads/serving.hh"
#include "workloads/workload.hh"

namespace dimmlink {
namespace workloads {

namespace {

class KvWorkload : public Workload
{
  public:
    KvWorkload(WorkloadParams params_,
               const dram::GlobalAddressMap &gmap_)
        : Workload(std::move(params_), gmap_),
          keys(p.serve.keys),
          valueBytes(p.serve.valueBytes),
          perDimm((keys + p.numDimms - 1) / p.numDimms),
          plans(serving::buildPlans(p.serve, p.numThreads, 1))
    {
        indexPuts();
        blockAddr.resize(p.numDimms);
        for (unsigned d = 0; d < p.numDimms; ++d)
            blockAddr[d] = alloc.alloc(static_cast<DimmId>(d),
                                       perDimm * valueBytes);
        // Hedged GETs read a replica of each value block living on a
        // far DIMM (docs/serving.md). Allocated after the primary
        // blocks, and only when hedging is on, so every primary
        // address -- and every non-hedging run -- is unchanged.
        if (p.serve.hedgeAfterUs > 0) {
            replicaAddr_.resize(p.numDimms);
            for (unsigned d = 0; d < p.numDimms; ++d)
                replicaAddr_[d] = alloc.alloc(static_cast<DimmId>(d),
                                              perDimm * valueBytes);
        }
        reset();
    }

    std::string name() const override { return "kv"; }

    void
    reset() override
    {
        store.assign(numPutKeys, 0);
        expected.assign(numPutKeys, 0);
        // Replay every planned PUT into the reference; XOR updates
        // commute, so the concurrent run matches in any order.
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const auto &plan = plans[t];
            for (std::size_t i = 0; i < plan.reqs.size(); ++i)
                if (!plan.reqs[i].isGet)
                    expected[putSlot[t][i]] ^=
                        putMix(plan.keys[i], t, i);
        }
    }

    bool
    verify() const override
    {
        return store == expected;
    }

    std::uint64_t
    approxInstructions() const override
    {
        return p.serve.requests * 32;
    }

    std::uint64_t
    approxMemRefs() const override
    {
        return p.serve.requests * refsPerValue();
    }

    std::unique_ptr<ThreadProgram>
    program(ThreadId tid) override
    {
        return dimmlink::makeProgram(run(tid));
    }

  private:
    /**
     * Give every distinct PUT key one dense slot and record each PUT
     * request's slot. Only the keys some request writes carry state,
     * so the functional store and its reference stay as small as the
     * write set instead of spanning the whole key space.
     */
    void
    indexPuts()
    {
        std::vector<std::uint64_t> put_keys;
        for (const auto &plan : plans)
            for (std::size_t i = 0; i < plan.reqs.size(); ++i)
                if (!plan.reqs[i].isGet)
                    put_keys.push_back(plan.keys[i]);
        std::sort(put_keys.begin(), put_keys.end());
        put_keys.erase(std::unique(put_keys.begin(), put_keys.end()),
                       put_keys.end());
        numPutKeys = put_keys.size();
        putSlot.resize(plans.size());
        for (std::size_t t = 0; t < plans.size(); ++t) {
            const auto &plan = plans[t];
            putSlot[t].assign(plan.reqs.size(), 0);
            for (std::size_t i = 0; i < plan.reqs.size(); ++i)
                if (!plan.reqs[i].isGet)
                    putSlot[t][i] = static_cast<std::uint32_t>(
                        std::lower_bound(put_keys.begin(), put_keys.end(),
                                         plan.keys[i]) -
                        put_keys.begin());
        }
    }

    static std::uint64_t
    putMix(std::uint64_t key, unsigned tid, std::uint64_t i)
    {
        return scatterHash(key ^
                           (static_cast<std::uint64_t>(tid) << 40) ^
                           (i * 0x9e3779b9ull));
    }

    std::uint64_t
    refsPerValue() const
    {
        return (valueBytes + 63) / 64;
    }

    DimmId
    keyDimm(std::uint64_t key) const
    {
        return static_cast<DimmId>(
            std::min<std::uint64_t>(key / perDimm, p.numDimms - 1));
    }

    Addr
    keyAddr(std::uint64_t key) const
    {
        const DimmId d = keyDimm(key);
        const std::uint64_t off =
            key - static_cast<std::uint64_t>(d) * perDimm;
        return blockAddr[d] + off * valueBytes;
    }

    /** The key's replica slot: same offset, on a DIMM half the pool
     * away so the hedge usually takes an independent route. */
    Addr
    keyReplicaAddr(std::uint64_t key) const
    {
        const DimmId d = keyDimm(key);
        const std::uint64_t off =
            key - static_cast<std::uint64_t>(d) * perDimm;
        const auto rd = static_cast<DimmId>(
            (static_cast<unsigned>(d) +
             std::max(1u, p.numDimms / 2)) % p.numDimms);
        return replicaAddr_[rd] + off * valueBytes;
    }

    std::vector<MemRef>
    valueRefs(Addr base, bool is_write) const
    {
        std::vector<MemRef> refs;
        for (std::uint32_t off = 0; off < valueBytes; off += 64) {
            const auto chunk = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(64, valueBytes - off));
            refs.push_back(MemRef{base + off, chunk, is_write,
                                  DataClass::SharedRW});
        }
        return refs;
    }

    OpStream
    run(ThreadId tid)
    {
        const auto &plan = plans[tid];
        const bool open = p.serve.mode == "open";
        const bool rel = p.serve.relEnabled();
        const bool hedge = p.serve.hedgeAfterUs > 0;
        for (std::size_t i = 0; i < plan.reqs.size(); ++i) {
            const serving::Request &req = plan.reqs[i];
            const std::uint64_t key = plan.keys[i];
            if (rel)
                co_yield Op::reqStartServe(
                    open ? req.arrivalPs : Op::reqNow,
                    req.shedAfterPs,
                    static_cast<std::int32_t>(keyDimm(key)));
            else
                co_yield open ? Op::reqStart(req.arrivalPs)
                              : Op::reqStartNow();
            // Hash the key and dispatch to the value's home.
            co_yield Op::compute(16);
            if (!req.isGet)
                store[putSlot[tid][i]] ^= putMix(key, tid, i);
            // Only GETs hedge: duplicating a PUT would double-apply
            // the update when both sides land.
            if (hedge && req.isGet)
                co_yield Op::memHedged(
                    valueRefs(keyAddr(key), false),
                    valueRefs(keyReplicaAddr(key), false));
            else
                co_yield Op::mem(valueRefs(keyAddr(key), !req.isGet));
            // Format the response; reqEnd drains the value refs.
            co_yield Op::compute(16);
            co_yield Op::reqEnd();
        }
        co_yield Op::barrier();
    }

    std::uint64_t keys;
    std::uint32_t valueBytes;
    std::uint64_t perDimm;
    std::vector<serving::ThreadPlan> plans;
    /** Distinct PUT keys, and each request's dense slot among them
     * (indexed [thread][request]; unused for GETs). */
    std::size_t numPutKeys = 0;
    std::vector<std::vector<std::uint32_t>> putSlot;
    /** Functional values of the PUT keys, by slot, and their
     * precomputed reference. */
    std::vector<std::uint64_t> store;
    std::vector<std::uint64_t> expected;
    std::vector<Addr> blockAddr;
    std::vector<Addr> replicaAddr_; ///< Empty unless hedging is on.
};

WorkloadFactory::Registrar reg("kv",
    [](const WorkloadParams &params, const dram::GlobalAddressMap &gmap)
        -> std::unique_ptr<Workload> {
        return std::make_unique<KvWorkload>(params, gmap);
    });

} // namespace

} // namespace workloads
} // namespace dimmlink
