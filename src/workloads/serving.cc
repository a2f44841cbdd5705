#include "workloads/serving.hh"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/log.hh"
#include "workloads/arrivals.hh"

namespace dimmlink {
namespace workloads {
namespace serving {

std::vector<ThreadPlan>
buildPlans(const ServeConfig &s, unsigned num_threads,
           unsigned keys_per_req)
{
    if (num_threads == 0)
        panic("serving plan for zero threads");
    const bool open = s.mode == "open";
    const ZipfSampler zipf(s.keys, s.zipfTheta);

    std::vector<ThreadPlan> plans(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        ThreadPlan &plan = plans[t];
        const std::uint64_t count =
            s.requests / num_threads +
            (t < s.requests % num_threads ? 1 : 0);
        plan.reqs.reserve(count);
        plan.keys.reserve(count * keys_per_req);

        // Independent per-thread streams, derived like the per-link
        // fault streams: key/type draws and arrival draws never share
        // a stream, so changing one knob cannot shift the other.
        Rng rng(s.seed * 1000003 + t);
        ArrivalProcess arrivals(s.offeredQps / num_threads,
                                (s.seed ^ 0xa55a5aa5deadbeefull) *
                                        1000003 + t,
                                s.burstFactor, s.burstPeriodPs,
                                s.burstLenPs);

        for (std::uint64_t i = 0; i < count; ++i) {
            Request req;
            if (open)
                req.arrivalPs = arrivals.next();
            req.isGet = rng.real() < s.getFraction;
            plan.reqs.push_back(req);
            for (unsigned k = 0; k < keys_per_req; ++k) {
                const std::uint64_t rank = zipf(rng);
                plan.keys.push_back(
                    s.scramble ? scatterHash(rank) % s.keys : rank);
            }
        }

        // Admission control (docs/serving.md): request i's shed
        // horizon is the arrival of request i + maxInflight on the
        // same thread -- if i has not started by then, at least
        // maxInflight requests are queued behind it.
        if (open && s.maxInflight > 0) {
            for (std::uint64_t i = 0;
                 i + s.maxInflight < plan.reqs.size(); ++i)
                plan.reqs[i].shedAfterPs =
                    plan.reqs[i + s.maxInflight].arrivalPs;
        }
    }
    return plans;
}

namespace {

/** The DIMM id encoded in a per-core stats group name
 * ("dimm3.core1" -> 3), or -1 for host-side and aggregate groups. */
int
dimmOfGroupName(const std::string &name)
{
    if (name.compare(0, 4, "dimm") != 0)
        return -1;
    std::size_t i = 4;
    int id = 0;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        id = id * 10 + (name[i++] - '0');
    return i > 4 ? id : -1;
}

} // namespace

bool
aggregate(stats::Registry &reg, const SystemConfig &cfg,
          Tick kernel_ticks)
{
    // Collect first, then write: creating the "serve" group while
    // forEachGroup walks the map would mutate it mid-iteration.
    stats::Histogram merged(
        static_cast<double>(cfg.serve.latBucketPs),
        cfg.serve.latBuckets);
    double wait_ps = 0;
    // Reliability counters (docs/serving.md), summed over the cores.
    struct RelCounter
    {
        const char *coreName; ///< Per-core scalar name.
        const char *outName;  ///< Aggregated "serve" scalar name.
        double sum = 0;
    };
    RelCounter relCounters[] = {
        {"reqDeadlineMisses", "deadlineMisses"},
        {"reqShed", "shedRequests"},
        {"reqRetries", "retries"},
        {"reqFastFails", "breakerFastFails"},
        {"reqFailed", "failedRequests"},
        {"reqHedges", "hedgedRequests"},
        {"reqHedgeWins", "hedgeWins"},
    };
    // Under rack pooling the same walk also folds each host's pool
    // partition into a per-host SLO histogram; single-host runs
    // build nothing extra so their stats JSON keeps its shape.
    std::vector<stats::Histogram> perHost;
    if (cfg.rackEnabled())
        perHost.assign(cfg.rack.hosts,
                       stats::Histogram(
                           static_cast<double>(cfg.serve.latBucketPs),
                           cfg.serve.latBuckets));
    reg.forEachGroup([&](const stats::Group &g) {
        if (g.name() == "serve")
            return;
        const auto it = g.histograms().find("reqLatencyPs");
        if (it != g.histograms().end()) {
            merged.merge(it->second);
            if (!perHost.empty()) {
                const int d = dimmOfGroupName(g.name());
                if (d >= 0)
                    perHost[cfg.hostOf(static_cast<DimmId>(d))].merge(
                        it->second);
            }
        }
        const auto sit = g.scalars().find("reqWaitPs");
        if (sit != g.scalars().end())
            wait_ps += sit->second.value();
        for (RelCounter &rc : relCounters) {
            const auto rit = g.scalars().find(rc.coreName);
            if (rit != g.scalars().end())
                rc.sum += rit->second.value();
        }
    });
    // The reliability layer ran when it is armed and a request
    // reached it. Then zero completed requests still produce a block
    // (everything may have been shed or failed fast -- that IS the
    // result); otherwise there is nothing serving-shaped to report.
    const bool relRan =
        cfg.serve.relEnabled() &&
        (merged.total() > 0 ||
         std::any_of(std::begin(relCounters), std::end(relCounters),
                     [](const RelCounter &rc) { return rc.sum > 0; }));
    if (merged.total() == 0 && !relRan)
        return false;

    stats::Group &serve = reg.group("serve");
    stats::Histogram &lat = serve.histogram(
        "latencyPs", static_cast<double>(cfg.serve.latBucketPs),
        cfg.serve.latBuckets);
    lat.reset();
    lat.merge(merged);

    const auto requests = static_cast<double>(merged.total());
    serve.scalar("requests").set(requests);
    serve.scalar("latencyP50Ps").set(merged.percentile(0.50));
    serve.scalar("latencyP95Ps").set(merged.percentile(0.95));
    serve.scalar("latencyP99Ps").set(merged.percentile(0.99));
    serve.scalar("achievedQps")
        .set(kernel_ticks > 0
                 ? requests /
                       (static_cast<double>(kernel_ticks) * 1e-12)
                 : 0);
    // Echo the offered load for open-loop runs so a stats dump is
    // self-describing; closed-loop runs have no offered rate.
    serve.scalar("offeredQps")
        .set(cfg.serve.mode == "open" ? cfg.serve.offeredQps : 0);
    serve.scalar("reqWaitPs").set(wait_ps);
    if (relRan) {
        for (const RelCounter &rc : relCounters)
            serve.scalar(rc.outName).set(rc.sum);
        // Goodput: on-time completions per second. Deadline-missed,
        // shed and failed requests never sample the histogram, so
        // every merged completion counts.
        serve.scalar("goodputQps")
            .set(kernel_ticks > 0
                     ? requests /
                           (static_cast<double>(kernel_ticks) * 1e-12)
                     : 0);
        // Error budget: errors over everything the run disposed of.
        const double errors = relCounters[0].sum +  // deadlineMisses
                              relCounters[1].sum +  // shedRequests
                              relCounters[4].sum;   // failedRequests
        const double disposed = requests + errors;
        serve.scalar("errorRate")
            .set(disposed > 0 ? errors / disposed : 0);
    }
    // Per-host SLO percentiles: requests served by each host's pool
    // partition (a request lands on the DIMM that owns its key, so a
    // host's tail shows remote-pool crossings and rack failovers).
    for (std::size_t h = 0; h < perHost.size(); ++h) {
        const std::string prefix = "host" + std::to_string(h) + ".";
        const stats::Histogram &hh = perHost[h];
        serve.scalar(prefix + "requests")
            .set(static_cast<double>(hh.total()));
        serve.scalar(prefix + "latencyP50Ps").set(hh.percentile(0.50));
        serve.scalar(prefix + "latencyP95Ps").set(hh.percentile(0.95));
        serve.scalar(prefix + "latencyP99Ps").set(hh.percentile(0.99));
    }
    return true;
}

} // namespace serving
} // namespace workloads
} // namespace dimmlink
