/**
 * @file
 * Heap-allocation counter for the simulator-speed benchmark. The
 * benchmark binary replaces the global operator new (alloc_count.cc),
 * so every allocation in the process is counted without LD_PRELOAD;
 * deltas around a call count that call's allocations.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

/** Heap allocations (operator new calls) since process start. */
std::uint64_t allocCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
