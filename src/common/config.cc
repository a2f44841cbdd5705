#include "common/config.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include <algorithm>

#include "common/bitfield.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "dram/sched_policy.hh"
#include "dram/timing.hh"
#include "fault/fault_model.hh"
#include "proto/dll.hh"
#include "rack/inter_host_fabric.hh"

namespace dimmlink {

const char *
toString(IdcMethod m)
{
    switch (m) {
      case IdcMethod::CpuForwarding: return "MCN";
      case IdcMethod::DedicatedBus: return "AIM";
      case IdcMethod::ChannelBroadcast: return "ABC-DIMM";
      case IdcMethod::DimmLink: return "DIMM-Link";
    }
    return "?";
}

const char *
toString(PollingMode m)
{
    switch (m) {
      case PollingMode::Baseline: return "Base";
      case PollingMode::BaselineInterrupt: return "Base+Itrpt";
      case PollingMode::Proxy: return "P-P";
      case PollingMode::ProxyInterrupt: return "P-P+Itrpt";
    }
    return "?";
}

const char *
toString(Topology t)
{
    switch (t) {
      case Topology::HalfRing: return "HalfRing";
      case Topology::Ring: return "Ring";
      case Topology::Mesh: return "Mesh";
      case Topology::Torus: return "Torus";
    }
    return "?";
}

const char *
toString(SyncScheme s)
{
    switch (s) {
      case SyncScheme::Centralized: return "Centralized";
      case SyncScheme::Hierarchical: return "Hierarchical";
    }
    return "?";
}

namespace {

/** Lowercase with punctuation stripped: "P-P+Itrpt" -> "ppitrpt". */
std::string
normalized(const std::string &s)
{
    std::string out;
    for (const char c : s)
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

IdcMethod
idcMethodFromString(const std::string &s)
{
    const std::string n = normalized(s);
    if (n == "mcn" || n == "cpuforwarding")
        return IdcMethod::CpuForwarding;
    if (n == "aim" || n == "dedicatedbus")
        return IdcMethod::DedicatedBus;
    if (n == "abcdimm" || n == "abc" || n == "channelbroadcast")
        return IdcMethod::ChannelBroadcast;
    if (n == "dimmlink" || n == "dl")
        return IdcMethod::DimmLink;
    fatal("unknown IDC method '%s' (valid: MCN, AIM, ABC-DIMM, "
          "DIMM-Link)", s.c_str());
}

PollingMode
pollingModeFromString(const std::string &s)
{
    const std::string n = normalized(s);
    if (n == "base" || n == "baseline")
        return PollingMode::Baseline;
    if (n == "baseitrpt" || n == "baselineinterrupt")
        return PollingMode::BaselineInterrupt;
    if (n == "pp" || n == "proxy")
        return PollingMode::Proxy;
    if (n == "ppitrpt" || n == "proxyitrpt" || n == "proxyinterrupt")
        return PollingMode::ProxyInterrupt;
    fatal("unknown polling mode '%s' (valid: Base, Base+Itrpt, P-P, "
          "P-P+Itrpt)", s.c_str());
}

Topology
topologyFromString(const std::string &s)
{
    const std::string n = normalized(s);
    if (n == "halfring" || n == "chain")
        return Topology::HalfRing;
    if (n == "ring")
        return Topology::Ring;
    if (n == "mesh")
        return Topology::Mesh;
    if (n == "torus")
        return Topology::Torus;
    fatal("unknown topology '%s' (valid: HalfRing, Ring, Mesh, Torus)",
          s.c_str());
}

SyncScheme
syncSchemeFromString(const std::string &s)
{
    const std::string n = normalized(s);
    if (n == "centralized" || n == "central")
        return SyncScheme::Centralized;
    if (n == "hierarchical" || n == "hier")
        return SyncScheme::Hierarchical;
    fatal("unknown sync scheme '%s' (valid: Centralized, Hierarchical)",
          s.c_str());
}

namespace {

// ---- config key schema -------------------------------------------------
//
// One Field per knob: the dotted key, a getter producing the value's
// JSON token, and a setter parsing the config-file spelling. The
// parse/format pairs below are chosen by overload on the member type.

[[noreturn]] void
badValue(const char *key, const std::string &v, const char *expected)
{
    fatal("config key '%s': cannot parse '%s' as %s", key, v.c_str(),
          expected);
}

std::uint64_t
parseValue(const std::string &v, const char *key, std::uint64_t)
{
    char *end = nullptr;
    if (!v.empty() && v[0] == '-')
        badValue(key, v, "a non-negative integer");
    const unsigned long long r = std::strtoull(v.c_str(), &end, 0);
    if (end == v.c_str() || *end != '\0')
        badValue(key, v, "a non-negative integer");
    return r;
}

unsigned
parseValue(const std::string &v, const char *key, unsigned)
{
    const std::uint64_t r = parseValue(v, key, std::uint64_t{});
    if (r > 0xffffffffull)
        badValue(key, v, "a 32-bit unsigned integer");
    return static_cast<unsigned>(r);
}

double
parseValue(const std::string &v, const char *key, double)
{
    char *end = nullptr;
    const double r = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        badValue(key, v, "a number");
    return r;
}

bool
parseValue(const std::string &v, const char *key, bool)
{
    const std::string n = normalized(v);
    if (n == "true" || n == "1" || n == "yes" || n == "on")
        return true;
    if (n == "false" || n == "0" || n == "no" || n == "off")
        return false;
    badValue(key, v, "a boolean (true/false)");
}

std::string
parseValue(const std::string &v, const char *, const std::string &)
{
    return v;
}

IdcMethod
parseValue(const std::string &v, const char *, IdcMethod)
{
    return idcMethodFromString(v);
}

PollingMode
parseValue(const std::string &v, const char *, PollingMode)
{
    return pollingModeFromString(v);
}

Topology
parseValue(const std::string &v, const char *, Topology)
{
    return topologyFromString(v);
}

SyncScheme
parseValue(const std::string &v, const char *, SyncScheme)
{
    return syncSchemeFromString(v);
}

std::string
formatValue(unsigned v)
{
    return std::to_string(v);
}

std::string
formatValue(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
formatValue(bool v)
{
    return v ? "true" : "false";
}

/** Shortest decimal form that parses back to exactly @p v. */
std::string
formatValue(double v)
{
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
formatValue(const std::string &v)
{
    return quoted(v);
}

std::string formatValue(IdcMethod v) { return quoted(toString(v)); }
std::string formatValue(PollingMode v) { return quoted(toString(v)); }
std::string formatValue(Topology v) { return quoted(toString(v)); }
std::string formatValue(SyncScheme v) { return quoted(toString(v)); }

struct Field
{
    const char *key;
    std::string (*get)(const SystemConfig &);
    void (*set)(SystemConfig &, const std::string &);
    /** Part of describe()/describeEntries()? Every key that can
     * change a result is, so a run replays from its own stats header.
     * The obs.* keys are not: tracing and sampling never change what
     * the simulation computes, so a traced run's stats JSON stays
     * byte-identical to an untraced one. */
    bool describable = true;
};

#define CFG_FIELD_AS(key, expr, describable)                            \
    Field{key,                                                          \
          [](const SystemConfig &c) { return formatValue(c.expr); },    \
          [](SystemConfig &c, const std::string &v) {                   \
              c.expr = parseValue(v, key, c.expr);                      \
          },                                                            \
          describable}
#define CFG_FIELD(key, expr) CFG_FIELD_AS(key, expr, true)
#define CFG_FIELD_HIDDEN(key, expr) CFG_FIELD_AS(key, expr, false)

const std::vector<Field> &
fields()
{
    static const std::vector<Field> table = {
        CFG_FIELD("system.numDimms", numDimms),
        CFG_FIELD("system.numChannels", numChannels),
        CFG_FIELD("system.dimmsPerGroup", dimmsPerGroup),
        CFG_FIELD("system.idcMethod", idcMethod),
        CFG_FIELD("system.pollingMode", pollingMode),
        CFG_FIELD("system.syncScheme", syncScheme),
        CFG_FIELD("system.distanceAwareMapping", distanceAwareMapping),
        CFG_FIELD("system.profileFraction", profileFraction),
        CFG_FIELD("system.dramPreset", dramPreset),
        CFG_FIELD("system.dramScheduler", dramScheduler),
        CFG_FIELD("system.seed", seed),

        // The `dram` section aliases into the timing-preset registry:
        // `dram.standard = ddr5` resolves to that family's default
        // speed grade, an exact grade name passes through. Hidden
        // because it is an input alias, not state: its whole effect
        // is recorded by `system.dramPreset`.
        Field{"dram.standard",
              [](const SystemConfig &c) {
                  return formatValue(
                      dram::Timing::familyOf(c.dramPreset));
              },
              [](SystemConfig &c, const std::string &v) {
                  c.dramPreset = dram::Timing::resolveName(
                      parseValue(v, "dram.standard", std::string()));
              },
              false},

        CFG_FIELD("host.numCores", host.numCores),
        CFG_FIELD("host.coreFreqMHz", host.coreFreqMHz),
        CFG_FIELD("host.computeIpc", host.computeIpc),
        CFG_FIELD("host.numChannels", host.numChannels),
        CFG_FIELD("host.channelGBps", host.channelGBps),
        CFG_FIELD("host.l1Bytes", host.l1Bytes),
        CFG_FIELD("host.l1Assoc", host.l1Assoc),
        CFG_FIELD("host.llcBytes", host.llcBytes),
        CFG_FIELD("host.llcAssoc", host.llcAssoc),
        CFG_FIELD("host.lineBytes", host.lineBytes),
        CFG_FIELD("host.l1LatencyPs", host.l1LatencyPs),
        CFG_FIELD("host.llcLatencyPs", host.llcLatencyPs),
        CFG_FIELD("host.forwardLatencyPs", host.forwardLatencyPs),
        CFG_FIELD("host.interruptLatencyPs", host.interruptLatencyPs),
        CFG_FIELD("host.pollIntervalPs", host.pollIntervalPs),
        CFG_FIELD("host.pollReadBytes", host.pollReadBytes),
        CFG_FIELD("host.pollChannelPs", host.pollChannelPs),
        CFG_FIELD("host.pollThreads", host.pollThreads),
        CFG_FIELD("host.forwardIssuePs", host.forwardIssuePs),

        CFG_FIELD("dimm.numCores", dimm.numCores),
        CFG_FIELD("dimm.coreFreqMHz", dimm.coreFreqMHz),
        CFG_FIELD("dimm.computeIpc", dimm.computeIpc),
        CFG_FIELD("dimm.l1Bytes", dimm.l1Bytes),
        CFG_FIELD("dimm.l1Assoc", dimm.l1Assoc),
        CFG_FIELD("dimm.l2Bytes", dimm.l2Bytes),
        CFG_FIELD("dimm.l2Assoc", dimm.l2Assoc),
        CFG_FIELD("dimm.lineBytes", dimm.lineBytes),
        CFG_FIELD("dimm.l1LatencyPs", dimm.l1LatencyPs),
        CFG_FIELD("dimm.l2LatencyPs", dimm.l2LatencyPs),
        CFG_FIELD("dimm.maxOutstanding", dimm.maxOutstanding),
        CFG_FIELD("dimm.numRanks", dimm.numRanks),
        CFG_FIELD("dimm.capacityBytes", dimm.capacityBytes),

        CFG_FIELD("link.linkGBps", link.linkGBps),
        CFG_FIELD("link.routerLatencyPs", link.routerLatencyPs),
        CFG_FIELD("link.wireLatencyPs", link.wireLatencyPs),
        CFG_FIELD("link.bufferFlits", link.bufferFlits),
        CFG_FIELD("link.flitBits", link.flitBits),
        CFG_FIELD("link.retryTimeoutPs", link.retryTimeoutPs),
        CFG_FIELD("link.maxRetries", link.maxRetries),
        CFG_FIELD("link.retryWindow", link.retryWindow),
        CFG_FIELD("link.topology", link.topology),

        CFG_FIELD("bus.busGBps", bus.busGBps),
        CFG_FIELD("bus.arbitrationPs", bus.arbitrationPs),

        CFG_FIELD("faults.model", faults.model),
        CFG_FIELD("faults.ber", faults.ber),
        CFG_FIELD("faults.seed", faults.seed),
        CFG_FIELD("faults.burstProb", faults.burstProb),
        CFG_FIELD("faults.burstLen", faults.burstLen),
        CFG_FIELD("faults.degradeFactor", faults.degradeFactor),
        CFG_FIELD("faults.stuckAtPs", faults.stuckAtPs),
        CFG_FIELD("faults.stuckForPs", faults.stuckForPs),
        CFG_FIELD("faults.stuckPeriodPs", faults.stuckPeriodPs),
        CFG_FIELD("faults.linkFilter", faults.linkFilter),
        CFG_FIELD("faults.suspectAfter", faults.suspectAfter),
        CFG_FIELD("faults.reprobeIntervalPs", faults.reprobeIntervalPs),
        CFG_FIELD("faults.onExhausted", faults.onExhausted),

        CFG_FIELD("serve.mode", serve.mode),
        CFG_FIELD("serve.offeredQps", serve.offeredQps),
        CFG_FIELD("serve.requests", serve.requests),
        CFG_FIELD("serve.seed", serve.seed),
        CFG_FIELD("serve.keys", serve.keys),
        CFG_FIELD("serve.zipfTheta", serve.zipfTheta),
        CFG_FIELD("serve.scramble", serve.scramble),
        CFG_FIELD("serve.getFraction", serve.getFraction),
        CFG_FIELD("serve.valueBytes", serve.valueBytes),
        CFG_FIELD("serve.embedDim", serve.embedDim),
        CFG_FIELD("serve.pooling", serve.pooling),
        CFG_FIELD("serve.burstFactor", serve.burstFactor),
        CFG_FIELD("serve.burstPeriodPs", serve.burstPeriodPs),
        CFG_FIELD("serve.burstLenPs", serve.burstLenPs),
        CFG_FIELD("serve.latBucketPs", serve.latBucketPs),
        CFG_FIELD("serve.latBuckets", serve.latBuckets),
        CFG_FIELD("serve.deadlineUs", serve.deadlineUs),
        CFG_FIELD("serve.maxRetries", serve.maxRetries),
        CFG_FIELD("serve.backoffUs", serve.backoffUs),
        CFG_FIELD("serve.hedgeAfterUs", serve.hedgeAfterUs),
        CFG_FIELD("serve.maxInflight", serve.maxInflight),

        CFG_FIELD("energy.linkPjPerBit", energy.linkPjPerBit),
        CFG_FIELD("energy.ddrRdWrPjPerBit", energy.ddrRdWrPjPerBit),
        CFG_FIELD("energy.busIoPjPerBit", energy.busIoPjPerBit),
        CFG_FIELD("energy.activateNj", energy.activateNj),
        CFG_FIELD("energy.nmpCoreWatt", energy.nmpCoreWatt),
        CFG_FIELD("energy.hostForwardNjPerPkt",
                  energy.hostForwardNjPerPkt),
        CFG_FIELD("energy.hostPollNj", energy.hostPollNj),
        CFG_FIELD("energy.dedicatedBusPjPerBit",
                  energy.dedicatedBusPjPerBit),

        CFG_FIELD_HIDDEN("obs.trace", obs.trace),
        CFG_FIELD_HIDDEN("obs.traceOut", obs.traceOut),
        CFG_FIELD_HIDDEN("obs.categories", obs.categories),
        CFG_FIELD_HIDDEN("obs.sampleIntervalPs", obs.sampleIntervalPs),
        CFG_FIELD_HIDDEN("obs.sampleOut", obs.sampleOut),
        CFG_FIELD_HIDDEN("obs.ringCapacity", obs.ringCapacity),

        CFG_FIELD("watchdog.stallPs", watchdog.stallPs),

        CFG_FIELD("rack.hosts", rack.hosts),
        CFG_FIELD("rack.fabric", rack.fabric),
        CFG_FIELD("rack.idcMode", rack.idcMode),
        CFG_FIELD("rack.latencyPs", rack.latencyPs),
        CFG_FIELD("rack.switchHopPs", rack.switchHopPs),
        CFG_FIELD("rack.portGBps", rack.portGBps),
        CFG_FIELD("rack.pooledGBps", rack.pooledGBps),
        CFG_FIELD("rack.groupsPerHost", rack.groupsPerHost),
        CFG_FIELD("rack.hostDownId", rack.hostDownId),
        CFG_FIELD("rack.hostDownAtPs", rack.hostDownAtPs),
        CFG_FIELD("rack.hostDownForPs", rack.hostDownForPs),
        CFG_FIELD("rack.nodeDownId", rack.nodeDownId),
        CFG_FIELD("rack.nodeDownAtPs", rack.nodeDownAtPs),
        CFG_FIELD("rack.nodeDownForPs", rack.nodeDownForPs),
    };
    return table;
}

#undef CFG_FIELD_AS
#undef CFG_FIELD
#undef CFG_FIELD_HIDDEN

/** Shared cache-geometry constraints (mirrors the Cache ctor checks,
 * surfaced here so a bad config fails before any component builds). */
void
validateCache(const char *what, unsigned bytes, unsigned assoc,
              unsigned line)
{
    if (line < 8 || !isPow2(line))
        fatal("%s: line size %u must be a power of two >= 8", what,
              line);
    if (assoc == 0)
        fatal("%s: associativity must be positive", what);
    if (bytes == 0 || bytes % (assoc * line) != 0)
        fatal("%s: %u bytes do not divide into %u ways of %u-byte "
              "lines", what, bytes, assoc, line);
    const unsigned sets = bytes / (assoc * line);
    if (!isPow2(sets))
        fatal("%s: set count %u must be a power of two", what, sets);
}

} // namespace

unsigned
SystemConfig::groupSize() const
{
    if (dimmsPerGroup != 0)
        return dimmsPerGroup;
    // Paper's organization: one DL group per side of the CPU socket.
    // A 4-DIMM system forms a single group; larger systems form two.
    if (numDimms <= 4)
        return numDimms;
    return numDimms / 2;
}

unsigned
SystemConfig::numGroups() const
{
    return divCeil(numDimms, groupSize());
}

void
SystemConfig::validate() const
{
    // System shape: DIMMs, channels, groups.
    if (numDimms == 0)
        fatal("numDimms must be positive");
    if (numChannels == 0 || numDimms % numChannels != 0)
        fatal("numDimms (%u) must be a multiple of numChannels (%u)",
              numDimms, numChannels);
    if (dimmsPerChannel() > 3 && idcMethod == IdcMethod::ChannelBroadcast)
        warn("more than 3 DIMMs per channel is not practical for "
             "DDR4 multi-drop buses (paper Section II-B)");
    if (numDimms % groupSize() != 0)
        fatal("numDimms (%u) must be a multiple of the group size (%u)",
              numDimms, groupSize());
    if (host.numChannels < numChannels)
        fatal("host provides %u channels but the system needs %u",
              host.numChannels, numChannels);

    // Topology vs. group shape.
    if (link.topology == Topology::Mesh ||
        link.topology == Topology::Torus) {
        if (groupSize() % 2 != 0 && groupSize() > 2)
            fatal("mesh/torus groups need an even number of DIMMs, "
                  "got %u", groupSize());
    }
    if (link.linkGBps <= 0)
        fatal("link.linkGBps must be positive, got %g", link.linkGBps);
    if (link.flitBits == 0 || link.flitBits % 8 != 0)
        fatal("link.flitBits (%u) must be a positive multiple of 8",
              link.flitBits);
    if (link.bufferFlits == 0)
        fatal("link.bufferFlits must be positive");

    // Address map: the DIMM-id bits sit above the capacity bits, so
    // per-DIMM capacity must be a power of two and line-aligned.
    if (!isPow2(dimm.capacityBytes))
        fatal("dimm.capacityBytes (%llu) must be a power of two "
              "(the DIMM id occupies the high address bits)",
              static_cast<unsigned long long>(dimm.capacityBytes));
    if (dimm.capacityBytes % dimm.lineBytes != 0)
        fatal("dimm.capacityBytes must be a multiple of the line size");

    // Cache geometry (checked here so errors name the config keys).
    validateCache("host L1", host.l1Bytes, host.l1Assoc,
                  host.lineBytes);
    validateCache("host LLC", host.llcBytes, host.llcAssoc,
                  host.lineBytes);
    validateCache("NMP L1", dimm.l1Bytes, dimm.l1Assoc,
                  dimm.lineBytes);
    validateCache("NMP L2", dimm.l2Bytes, dimm.l2Assoc,
                  dimm.lineBytes);

    // Host and DIMM resources.
    if (host.numCores == 0 || dimm.numCores == 0)
        fatal("host and DIMM core counts must be positive");
    if (host.coreFreqMHz <= 0 || dimm.coreFreqMHz <= 0)
        fatal("core frequencies must be positive");
    if (host.channelGBps <= 0 || bus.busGBps <= 0)
        fatal("channel and bus bandwidths must be positive");
    if (host.pollThreads == 0)
        fatal("host.pollThreads must be positive (the forwarder "
              "issues through the polling threads)");
    if (host.pollIntervalPs == 0)
        fatal("host.pollIntervalPs must be positive");
    if (dimm.maxOutstanding == 0)
        fatal("NMP cores need at least one MSHR");
    if (dimm.numRanks == 0)
        fatal("dimm.numRanks must be positive");

    // Registry-keyed names, checked here so a bad config fails with
    // the valid alternatives before any component builds.
    const auto &sched = dram::SchedPolicyFactory::instance();
    if (!sched.contains(dramScheduler))
        fatal("unknown DRAM scheduling policy '%s' (registered: %s)",
              dramScheduler.c_str(), sched.knownList().c_str());
    const auto &timings = dram::TimingFactory::instance();
    if (!timings.contains(dramPreset))
        fatal("unknown DRAM timing preset '%s' (registered: %s)",
              dramPreset.c_str(), timings.knownList().c_str());

    // DLL retry window: the selective-repeat dedup logic needs the
    // old and new halves of the 16-bit sequence space to stay
    // disjoint.
    if (link.retryWindow == 0 ||
        link.retryWindow > proto::RetrySender::maxWindow)
        fatal("link.retryWindow (%u) must be within [1, %u]",
              link.retryWindow, proto::RetrySender::maxWindow);

    // Fault injection.
    const auto &fm = fault::FaultModelFactory::instance();
    if (!fm.contains(faults.model))
        fatal("unknown fault model '%s' (registered: %s)",
              faults.model.c_str(), fm.knownList().c_str());
    if (faults.ber < 0.0 || faults.ber >= 1.0)
        fatal("faults.ber (%g) must be within [0, 1)", faults.ber);
    if (faults.burstProb < 0.0 || faults.burstProb > 1.0)
        fatal("faults.burstProb (%g) must be within [0, 1]",
              faults.burstProb);
    if (faults.burstLen == 0)
        fatal("faults.burstLen must be positive");
    if (faults.degradeFactor <= 0.0 || faults.degradeFactor > 1.0)
        fatal("faults.degradeFactor (%g) must be within (0, 1]",
              faults.degradeFactor);
    if (faults.model == "ber" || faults.model == "burst") {
        if (faults.ber == 0.0)
            warn("fault model '%s' with faults.ber = 0 injects "
                 "nothing", faults.model.c_str());
    }
    if (faults.suspectAfter == 0)
        fatal("faults.suspectAfter must be positive");
    if (faults.reprobeIntervalPs == 0)
        fatal("faults.reprobeIntervalPs must be positive");
    if (faults.onExhausted != "failover" && faults.onExhausted != "drop"
        && faults.onExhausted != "panic")
        fatal("faults.onExhausted must be one of failover, drop, "
              "panic (got '%s')", faults.onExhausted.c_str());

    // Serving frontend.
    if (serve.mode != "open" && serve.mode != "closed")
        fatal("serve.mode must be 'open' or 'closed' (got '%s')",
              serve.mode.c_str());
    if (serve.offeredQps <= 0)
        fatal("serve.offeredQps (%g) must be positive",
              serve.offeredQps);
    if (serve.requests == 0)
        fatal("serve.requests must be positive");
    if (serve.keys == 0)
        fatal("serve.keys must be positive");
    if (serve.zipfTheta < 0.0 || serve.zipfTheta >= 1.0)
        fatal("serve.zipfTheta (%g) must be within [0, 1) (the YCSB "
              "zipfian generator's range)", serve.zipfTheta);
    if (serve.getFraction < 0.0 || serve.getFraction > 1.0)
        fatal("serve.getFraction (%g) must be within [0, 1]",
              serve.getFraction);
    if (serve.valueBytes == 0)
        fatal("serve.valueBytes must be positive");
    if (serve.embedDim == 0 || serve.pooling == 0)
        fatal("serve.embedDim and serve.pooling must be positive");
    if (serve.burstFactor < 1.0)
        fatal("serve.burstFactor (%g) must be >= 1 (it multiplies "
              "the base rate during bursts)", serve.burstFactor);
    if (serve.burstPeriodPs != 0 &&
        (serve.burstLenPs == 0 || serve.burstLenPs >= serve.burstPeriodPs))
        fatal("serve.burstLenPs must be within (0, burstPeriodPs) "
              "when bursty phases are on");
    if (serve.latBucketPs == 0 || serve.latBuckets == 0)
        fatal("serve.latBucketPs and serve.latBuckets must be "
              "positive");
    if (serve.deadlineUs < 0 || serve.backoffUs < 0 ||
        serve.hedgeAfterUs < 0)
        fatal("serve.deadlineUs, serve.backoffUs and "
              "serve.hedgeAfterUs must be non-negative");
    if (serve.maxRetries > 0 && serve.backoffUs <= 0)
        fatal("serve.maxRetries = %u needs a positive serve.backoffUs "
              "(the retry delay doubles from it)", serve.maxRetries);
    if (serve.maxInflight > 0 && serve.mode != "open")
        fatal("serve.maxInflight (load shedding) needs serve.mode = "
              "open: closed-loop threads never queue arrivals");

    // Mapping knobs.
    if (profileFraction < 0.0 || profileFraction > 1.0)
        fatal("profileFraction (%g) must be within [0, 1]",
              profileFraction);

    // Rack-scale pooling. Only the multi-host case is constrained:
    // single-host configs must never fatal on leftover rack keys (the
    // layer builds nothing when unused).
    if (rack.hosts == 0)
        fatal("rack.hosts must be positive (1 = single-host)");
    if (rack.hosts > 1) {
        if (idcMethod != IdcMethod::DimmLink)
            fatal("rack.hosts = %u requires the DIMM-Link fabric "
                  "(got %s): only its inter-group path composes with "
                  "the rack crossing", rack.hosts, toString(idcMethod));
        if (rack.hosts > numGroups())
            fatal("rack.hosts (%u) exceeds the number of DL groups "
                  "(%u): each host needs at least one pool group",
                  rack.hosts, numGroups());
        if (groupsPerHost() * rack.hosts != numGroups())
            fatal("rack.hosts (%u) x groupsPerHost (%u) must cover "
                  "the %u DL groups exactly", rack.hosts,
                  groupsPerHost(), numGroups());
        if ((groupsPerHost() * groupSize()) % dimmsPerChannel() != 0)
            fatal("a host's %u DIMMs do not align with whole "
                  "channels of %u DIMMs (channels cannot straddle "
                  "hosts)", groupsPerHost() * groupSize(),
                  dimmsPerChannel());
        const auto &rf = rack::InterHostFabricFactory::instance();
        if (!rf.contains(rack.fabric))
            fatal("unknown inter-host fabric '%s' (registered: %s)",
                  rack.fabric.c_str(), rf.knownList().c_str());
        if (rack.idcMode != "pooled" && rack.idcMode != "forwarded")
            fatal("rack.idcMode must be 'pooled' or 'forwarded' "
                  "(got '%s')", rack.idcMode.c_str());
        if (rack.latencyPs == 0)
            fatal("rack.latencyPs must be positive (a zero-latency "
                  "rack crossing admits no conservative window)");
        if (rack.portGBps <= 0 || rack.pooledGBps <= 0)
            fatal("rack.portGBps and rack.pooledGBps must be "
                  "positive");
        if (rack.hostDownAtPs != 0 && rack.hostDownId >= rack.hosts)
            fatal("rack.hostDownId (%u) out of range (rack has %u "
                  "hosts)", rack.hostDownId, rack.hosts);
        if (rack.nodeDownAtPs != 0) {
            if (rack.nodeDownId >= numGroups())
                fatal("rack.nodeDownId (%u) out of range (%u pool "
                      "groups)", rack.nodeDownId, numGroups());
            if (rack.nodeDownId % groupsPerHost() != 0)
                fatal("rack.nodeDownId (%u) is not a gateway pool "
                      "node (the bridge lanes attach at each host's "
                      "first group: multiples of %u)",
                      rack.nodeDownId, groupsPerHost());
        }
    }

    // Observability. Category names are validated where the tracer is
    // built (obs::categoryMaskFromString) to keep common/ free of an
    // obs/ dependency.
    if (obs.ringCapacity == 0)
        fatal("obs.ringCapacity must be positive");
    if (obs.trace && obs.traceOut.empty())
        fatal("obs.trace is on but obs.traceOut is empty");
}

SystemConfig
SystemConfig::preset(const std::string &name)
{
    SystemConfig cfg;
    if (name == "4D-2C") {
        cfg.numDimms = 4;
        cfg.numChannels = 2;
    } else if (name == "8D-4C") {
        cfg.numDimms = 8;
        cfg.numChannels = 4;
    } else if (name == "12D-6C") {
        cfg.numDimms = 12;
        cfg.numChannels = 6;
    } else if (name == "16D-8C") {
        cfg.numDimms = 16;
        cfg.numChannels = 8;
    } else {
        fatal("unknown system preset '%s' (valid: 4D-2C, 8D-4C, "
              "12D-6C, 16D-8C)", name.c_str());
    }
    cfg.host.numChannels = cfg.numChannels;
    return cfg;
}

void
SystemConfig::set(const std::string &key, const std::string &value)
{
    for (const Field &f : fields()) {
        if (key == f.key) {
            f.set(*this, value);
            return;
        }
    }
    // Unknown key: point at the section's keys when the section
    // exists, otherwise list the sections.
    const std::string section = key.substr(0, key.find('.'));
    std::string siblings;
    for (const Field &f : fields()) {
        const std::string fkey = f.key;
        if (fkey.compare(0, section.size() + 1, section + ".") == 0) {
            if (!siblings.empty())
                siblings += ", ";
            siblings += fkey;
        }
    }
    if (!siblings.empty())
        fatal("unknown config key '%s' (keys in section '%s': %s)",
              key.c_str(), section.c_str(), siblings.c_str());
    fatal("unknown config key '%s' (sections: system, host, dimm, "
          "dram, link, bus, faults, serve, energy, obs, watchdog, "
          "rack)", key.c_str());
}

void
SystemConfig::applyOverride(const std::string &key_eq_value)
{
    const std::size_t eq = key_eq_value.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("malformed override '%s' (expected section.key=value)",
              key_eq_value.c_str());
    set(key_eq_value.substr(0, eq), key_eq_value.substr(eq + 1));
}

std::vector<std::string>
SystemConfig::knownKeys()
{
    std::vector<std::string> keys;
    keys.reserve(fields().size());
    for (const Field &f : fields())
        keys.push_back(f.key);
    return keys;
}

dram::Timing
SystemConfig::dramTiming() const
{
    return dram::Timing::preset(dramPreset);
}

SystemConfig
SystemConfig::fromString(const std::string &text,
                         const std::string &origin)
{
    SystemConfig cfg;
    for (const json::Entry &e : json::parseFlat(text, origin))
        cfg.set(e.key, e.value);
    return cfg;
}

SystemConfig
SystemConfig::fromFile(const std::string &path)
{
    SystemConfig cfg;
    for (const json::Entry &e : json::parseFlatFile(path))
        cfg.set(e.key, e.value);
    return cfg;
}

std::vector<std::pair<std::string, std::string>>
SystemConfig::describeEntries() const
{
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(fields().size());
    for (const Field &f : fields())
        if (f.describable)
            out.emplace_back(f.key, f.get(*this));
    return out;
}

std::string
SystemConfig::describe() const
{
    std::string out = "{\n";
    const auto entries = describeEntries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        out += "  \"" + entries[i].first + "\": " + entries[i].second;
        if (i + 1 < entries.size())
            out += ",";
        out += "\n";
    }
    out += "}\n";
    return out;
}

void
SystemConfig::print(std::ostream &os) const
{
    os << "System configuration (Table V reconstruction)\n"
       << "  DIMMs: " << numDimms << "  channels: " << numChannels
       << "  DIMMs/channel: " << dimmsPerChannel()
       << "  DL groups: " << numGroups() << " x " << groupSize() << "\n"
       << "  IDC method: " << toString(idcMethod)
       << "  polling: " << toString(pollingMode)
       << "  sync: " << toString(syncScheme)
       << "  mapping: " << (distanceAwareMapping ? "distance-aware"
                                                 : "static") << "\n"
       << "  Host: " << host.numCores << " OoO cores @ "
       << host.coreFreqMHz / 1000.0 << " GHz, "
       << host.numChannels << " channels @ " << host.channelGBps
       << " GB/s\n"
       << "  NMP DIMM: " << dimm.numCores << " cores @ "
       << dimm.coreFreqMHz / 1000.0 << " GHz, L1 "
       << dimm.l1Bytes / 1024 << " KB, shared L2 "
       << dimm.l2Bytes / 1024 << " KB, " << dimm.numRanks
       << " ranks\n"
       << "  DIMM-Link: " << link.linkGBps << " GB/s/dir per link, "
       << toString(link.topology) << ", " << link.flitBits
       << "-bit flits, " << link.bufferFlits << "-flit buffers\n"
       << "  AIM bus: " << bus.busGBps << " GB/s shared\n"
       << "  DRAM preset: " << dramPreset
       << "  scheduler: " << dramScheduler << "\n";
    if (rackEnabled()) {
        os << "  Rack: " << rack.hosts << " hosts x "
           << groupsPerHost() << " pool groups, \"" << rack.fabric
           << "\" fabric, CXL " << rack.latencyPs / 1000.0 << " ns + "
           << rack.switchHopPs / 1000.0 << " ns/hop, ports "
           << rack.portGBps << " GB/s, pooled bridges "
           << rack.pooledGBps << " GB/s (primary: " << rack.idcMode
           << ")\n";
    }
}

} // namespace dimmlink
