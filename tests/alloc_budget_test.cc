/** @file Heap-allocation budget of the simulated hot path. This file
 * builds into its own test binary: it replaces the global operator new
 * with a counting one, which must not leak into any other test.
 *
 * Two small golden-style cells (8D-4C DIMM-Link pagerank, and the same
 * machine with BER 1e-3 on the reliable DLL transport) count the
 * operator-new calls made inside Runner::run and assert a per-event
 * budget. After the run drains, DlFabric must hold no live transfer
 * record: every transaction, packet, DLL exchange and proxy note has
 * returned its slot. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "idc/dl_fabric.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace {

std::atomic<std::uint64_t> allocs{0};

void *
countedAlloc(std::size_t n)
{
    allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n == 0 ? 1 : n);
    if (!p)
        throw std::bad_alloc{};
    return p;
}

} // namespace

// GCC cannot see that the replacements below are a matched
// malloc/free pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace dimmlink {
namespace {

/**
 * A cell and its budget of heap allocations per executed event inside
 * Runner::run. The IDC path (Local MC, DlFabric, NoC routers and
 * links, host forwarding) allocates nothing per event once its pools
 * are warm. What remains, measured at about 0.17 (DIMM-Link) and 0.36
 * (BER/DLL) per event, is mostly the workload's op generation (each
 * op's reference list), the DRAM controllers' deque queues, and on the
 * DLL path the per-packet wire images, codec buffers and retry-engine
 * entries. Before the IDC path moved to handle-only closures these
 * cells made about 1.5 allocations per event.
 */
struct Cell
{
    const char *name;
    SystemConfig cfg;
    double budgetPerEvent;
};

SystemConfig
dimmLink8D()
{
    auto cfg = SystemConfig::preset("8D-4C");
    cfg.idcMethod = IdcMethod::DimmLink;
    return cfg;
}

SystemConfig
berDll8D()
{
    auto cfg = dimmLink8D();
    cfg.faults.model = "ber";
    cfg.faults.ber = 1e-3;
    return cfg;
}

void
runCell(const Cell &cell)
{
    System sys(cell.cfg);
    workloads::WorkloadParams p;
    p.numThreads = cell.cfg.numDimms * cell.cfg.dimm.numCores;
    p.numDimms = cell.cfg.numDimms;
    p.scale = 8;
    p.rounds = 2;
    p.serve = cell.cfg.serve;
    auto wl = workloads::makeWorkload("pagerank", p, sys.addressMap());
    Runner runner(sys, *wl);

    const std::uint64_t events0 = sys.queue().executed();
    const std::uint64_t allocs0 = allocs.load();
    const RunResult r = runner.run();
    const std::uint64_t n_allocs = allocs.load() - allocs0;
    const std::uint64_t n_events = sys.queue().executed() - events0;
    ASSERT_TRUE(r.verified) << cell.name;
    ASSERT_GT(n_events, 0u) << cell.name;
    const double per_event = static_cast<double>(n_allocs) /
                             static_cast<double>(n_events);
    ::testing::Test::RecordProperty("allocsPerEvent",
                                    std::to_string(per_event));
    EXPECT_LE(per_event, cell.budgetPerEvent)
        << cell.name << ": " << n_allocs << " allocations over "
        << n_events << " events";

    // Posted writebacks and DLL ACKs may still be in flight when the
    // kernel's last thread retires; give them a simulated millisecond
    // (refresh keeps the queue from ever draining on its own).
    sys.queue().runUntil(sys.queue().now() + tickPerMs);
    auto *dl = dynamic_cast<idc::DlFabric *>(&sys.fabric());
    ASSERT_NE(dl, nullptr) << cell.name;
    EXPECT_EQ(dl->liveTransfers(), 0u)
        << cell.name << ": leaked transfer records\n"
        << dl->debugDump();
}

TEST(AllocBudget, DimmLinkPagerankStaysWithinBudget)
{
    runCell({"8D-4C dimmlink pagerank", dimmLink8D(), 0.25});
}

TEST(AllocBudget, BerDllPagerankStaysWithinBudget)
{
    runCell({"8D-4C ber/dll pagerank", berDll8D(), 0.5});
}

} // namespace
} // namespace dimmlink
