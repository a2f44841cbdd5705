#include "host_probe.hh"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "alloc_count.hh"

namespace perfbench {

namespace {

/** The process's VmHWM in kB, 0 when /proc is unreadable. */
double
vmHwmKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    return 0;
}

/** An anonymous mapping, returned to the OS on destruction (a malloc
 * block this size could stay resident after free). */
class Mapping
{
  public:
    explicit Mapping(std::size_t bytes)
        : bytes_(bytes),
          p_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))
    {
        if (p_ == MAP_FAILED)
            throw std::bad_alloc{};
    }
    ~Mapping() { munmap(p_, bytes_); }
    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    std::uint64_t *words() { return static_cast<std::uint64_t *>(p_); }

  private:
    std::size_t bytes_;
    void *p_;
};

/** SplitMix64: the probe's own generator, so no simulator code runs
 * inside it. */
std::uint64_t
splitMix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The probe's event handlers, called through a function pointer. */
using Handler = std::uint64_t (*)(std::uint64_t, std::uint64_t);

std::uint64_t
mixHandler(std::uint64_t a, std::uint64_t b)
{
    return (a ^ b) * 0x100000001b3ull;
}

std::uint64_t
rotateHandler(std::uint64_t a, std::uint64_t b)
{
    return ((a << 13) | (a >> 51)) + b;
}

std::uint64_t
probeWork()
{
    constexpr std::uint64_t tableWords = 1u << 20; // 8 MB
    constexpr unsigned agents = 256;
    constexpr unsigned ringSlots = 4096;
    constexpr unsigned steps = 560000;
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    static constexpr Handler handlers[] = {mixHandler, rotateHandler};

    // Everything the loop touches is fixed-size: the table is mapped,
    // the timer heap and the ring of recent slots live on the stack.
    Mapping mapping(tableWords * sizeof(std::uint64_t));
    std::uint64_t *table = mapping.words();
    std::array<Event, agents> heap;
    std::array<std::uint64_t, ringSlots> ring{};
    std::uint64_t rng = 9;
    std::uint64_t acc = 0;
    for (std::uint32_t a = 0; a < agents; ++a)
        heap[a] = {splitMix(rng) % 1000, a};
    std::make_heap(heap.begin(), heap.end(), std::greater<Event>{});
    for (unsigned n = 0; n < steps; ++n) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<Event>{});
        const auto [now, agent] = heap.back();
        const std::uint64_t slot = splitMix(rng) % tableWords;
        table[slot] += agent;
        acc += table[(slot * 7) % tableWords];
        const Handler h = handlers[(slot ^ agent) & 1];
        acc = h(acc, slot ^ now);
        std::uint64_t &recent = ring[slot % ringSlots];
        acc += recent;
        recent = now;
        heap.back() = {now + 1 + splitMix(rng) % 1000, agent};
        std::push_heap(heap.begin(), heap.end(), std::greater<Event>{});
    }
    return acc;
}

} // namespace

double
HostProbe::measure()
{
    peakOutsideKb_ = std::max(peakOutsideKb_, vmHwmKb());
    const std::uint64_t allocs0 = allocCount();
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t acc = probeWork();
    lastNs_ = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (acc == 0) // consume the result so the work is not elided
        throw std::logic_error("host probe computed nothing");
    // The probe must not share the heap with the simulator, or an
    // allocation change in the simulator would move the denominator.
    if (allocCount() != allocs0)
        throw std::logic_error("host probe allocated on the heap");
    // Reset VmHWM to the current RSS so the probe's own peak never
    // counts; the peak seen up to here was saved above.
    std::ofstream("/proc/self/clear_refs") << "5";
    return lastNs_;
}

double
HostProbe::peakRssMb() const
{
    return std::max(peakOutsideKb_, vmHwmKb()) / 1024.0;
}

} // namespace perfbench
