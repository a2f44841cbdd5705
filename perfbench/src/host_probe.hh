/**
 * @file
 * Host-speed probe. The benchmark host is shared, and its speed drifts
 * by up to 2x over tens of seconds as neighbours load its caches,
 * memory and cores. Raw host times then differ by ~15% between runs
 * however long each run is. The probe is a fixed amount of
 * simulator-like host work: a timer-heap event loop whose handlers are
 * called through function pointers, a ring of recent slots and random
 * reads over an 8 MB table. Timed between cells, it tracks the host's
 * current speed, so cell times can be scaled to one reference speed
 * (README.md, "Host-speed scaling").
 *
 * The probe must stay independent of the simulator, or a simulator
 * change would move the denominator too: it runs no simulator code
 * (its generator is its own) and makes no heap allocation in its loop
 * (measure() throws if it does).
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

namespace perfbench {

class HostProbe
{
  public:
    /** The probe's duration on the reference host. A host time t
     * measured while the probe takes p ns is reported as
     * t * refNs / p. */
    static constexpr double refNs = 100e6;

    /** Run the probe once; @return its duration in ns. Keeps the
     * probe's own memory out of peakRssMb(). */
    double measure();

    /** Duration of the latest measure(), in ns. */
    double last() const { return lastNs_; }

    /** Peak resident memory of the process outside the probe, MB. */
    double peakRssMb() const;

  private:
    double lastNs_ = refNs;
    double peakOutsideKb_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
