/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span is
 * one timed call into a layer (name, start, end, parent span, and the
 * id of the cell or layer driver it belongs to). Spans stay in memory
 * until the run ends; then they are summarised per name with their self
 * times. A disabled recorder records nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    static constexpr int noParent = -1;

    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        int parent = noParent;
        double startNs = 0;
        double endNs = 0;
        double durNs() const { return endNs - startNs; }
    };

    /** Opens a span on construction and closes it on destruction;
     * does nothing when @p rec is null or disabled. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, std::string name, std::uint64_t id,
              int parent = noParent)
            : rec_(rec && rec->enabled() ? rec : nullptr),
              idx_(rec_ ? rec_->open(std::move(name), id, parent)
                        : noParent)
        {}
        ~Scope()
        {
            if (rec_)
                rec_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Index of this span, to parent child spans on. */
        int index() const { return idx_; }

      private:
        SpanRecorder *rec_;
        int idx_;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time covered by direct children (children
     * run one after another inside their parent, so they never
     * overlap). */
    std::vector<double> selfNs() const;

  private:
    int open(std::string name, std::uint64_t id, int parent);
    void close(int idx);
    double nowNs() const;

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
};

inline int
SpanRecorder::open(std::string name, std::uint64_t id, int parent)
{
    spans_.push_back({std::move(name), id, parent, nowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
}

inline void
SpanRecorder::close(int idx)
{
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
}

inline double
SpanRecorder::nowNs() const
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

inline std::vector<double>
SpanRecorder::selfNs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durNs();
    for (const Span &s : spans_)
        if (s.parent != noParent)
            self[static_cast<std::size_t>(s.parent)] -= s.durNs();
    return self;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
