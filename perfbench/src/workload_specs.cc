#include "workload_specs.hh"

namespace perfbench {

using namespace dimmlink;

namespace {

struct Recipe
{
    const char *name;
    const char *preset;
    std::vector<std::string> overrides;
    std::vector<std::string> kernels;
    std::uint64_t scale;
};

const std::vector<Recipe> &
recipes()
{
    // The paper's headline machine: 16 DIMMs, 8 channels, DIMM-Link
    // with proxy polling and hierarchical sync (Fig. 10).
    static const std::vector<std::string> dimmLink = {
        "system.idcMethod=dimmlink", "system.pollingMode=proxy",
        "system.syncScheme=hier"};
    static const std::vector<std::string> graphKernels = {
        "pagerank", "bfs", "sssp", "spmv"};
    static const std::vector<Recipe> all = {
        {"graph-dl", "16D-8C", dimmLink, graphKernels, 13},
        {"graph-host", "16D-8C",
         {"system.idcMethod=mcn", "system.pollingMode=base",
          "system.syncScheme=central"},
         graphKernels, 13},
        {"kv-serve", "8D-4C",
         {"system.idcMethod=dimmlink", "system.pollingMode=proxy",
          "system.syncScheme=hier", "serve.mode=open",
          "serve.requests=65536", "serve.keys=1048576",
          "serve.zipfTheta=0.99", "serve.getFraction=0.8",
          "serve.offeredQps=22000000"},
         {"kv"}, 1},
        {"dll-ber", "16D-8C",
         {"system.idcMethod=dimmlink", "system.pollingMode=proxy",
          "system.syncScheme=hier", "faults.model=ber",
          "faults.ber=5e-5"},
         {"pagerank", "spmv"}, 13},
    };
    return all;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Recipe &r : recipes())
        names.push_back(r.name);
    return names;
}

std::optional<WorkloadSpec>
makeSpec(const std::string &name, std::uint64_t seed)
{
    for (const Recipe &r : recipes()) {
        if (name != r.name)
            continue;
        WorkloadSpec spec{r.name, SystemConfig::preset(r.preset),
                          r.kernels, {}};
        for (const std::string &o : r.overrides)
            spec.cfg.applyOverride(o);
        spec.cfg.serve.seed = seed;
        spec.cfg.faults.seed = seed;
        workloads::WorkloadParams &p = spec.params;
        p.numThreads = spec.cfg.numDimms * spec.cfg.dimm.numCores;
        p.numDimms = spec.cfg.numDimms;
        p.scale = r.scale;
        p.seed = seed;
        p.rounds = 4;
        p.serve = spec.cfg.serve;
        return spec;
    }
    return std::nullopt;
}

} // namespace perfbench
