/**
 * @file
 * Isolated drivers for single simulator layers: each builds one
 * component on its own event queue, feeds it synthetic traffic shaped
 * after the workload (its machine preset and the mix the full run
 * measured), and reports host nanoseconds per unit of work. Together
 * with the full runs' counts they say which layer's per-unit cost a
 * change moved.
 */

#ifndef PERFBENCH_LAYER_DRIVERS_HH
#define PERFBENCH_LAYER_DRIVERS_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "spans.hh"

namespace perfbench {

/** Traffic shape the full run measured, handed to the drivers. */
struct LayerMix
{
    double dramWriteFraction = 0.3;
    double dramRowHitRatio = 0.5;
    double l1HitRatio = 0.5;
};

/** Host nanoseconds per unit of work, median over repetitions. */
struct LayerCosts
{
    double queueNsPerEvent = 0;
    double dramNsPerRequest = 0;
    double nocNsPerFlit = 0;
    double codecNsPerPacket = 0;
    double dllNsPerPacket = 0;
    double cacheNsPerAccess = 0;
};

/**
 * Run every driver @p reps times, all repetitions of a driver inside
 * one span named "layer.<layer>" with id @p span_id. Throws
 * std::runtime_error when a driver's traffic does not complete.
 */
LayerCosts runLayerDrivers(const dimmlink::SystemConfig &cfg,
                           const LayerMix &mix, std::uint64_t seed,
                           unsigned reps, SpanRecorder &rec,
                           std::uint64_t span_id);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_LAYER_DRIVERS_HH
