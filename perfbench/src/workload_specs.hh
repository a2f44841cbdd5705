/**
 * @file
 * The benchmark's workloads: each is a machine configuration plus the
 * list of kernel cells one pass simulates, closed loop (each cell
 * starts after the previous one finished). README.md gives the reason
 * for each choice.
 */

#ifndef PERFBENCH_WORKLOAD_SPECS_HH
#define PERFBENCH_WORKLOAD_SPECS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "workloads/workload.hh"

namespace perfbench {

struct WorkloadSpec
{
    std::string name;
    /** The resolved machine, seed applied. */
    dimmlink::SystemConfig cfg;
    /** Kernel names, one simulation cell each, in pass order. */
    std::vector<std::string> kernels;
    /** Problem size and seed handed to every kernel. */
    dimmlink::workloads::WorkloadParams params;
};

/** Every workload name, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** The workload @p name with @p seed applied to the workload inputs
 * (WorkloadParams.seed), the serving arrivals (serve.seed) and the
 * fault injector (faults.seed); nullopt for an unknown name. */
std::optional<WorkloadSpec> makeSpec(const std::string &name,
                                     std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_SPECS_HH
