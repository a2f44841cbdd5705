/**
 * @file
 * Ring: a FIFO over one contiguous power-of-two buffer. Unlike
 * std::deque it never frees or allocates in steady state: the buffer
 * only grows (doubling) when a push finds it full, so a queue that
 * cycles through the same occupancy stops touching the heap after its
 * first high-water mark. The buffer starts empty; nothing is reserved
 * at construction.
 */

#ifndef DIMMLINK_COMMON_RING_HH
#define DIMMLINK_COMMON_RING_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace dimmlink {

template <typename T>
class Ring
{
  public:
    Ring() = default;
    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    Ring(Ring &&o) noexcept
        : buf(o.buf), cap(o.cap), head(o.head), count(o.count)
    {
        o.buf = nullptr;
        o.cap = o.head = o.count = 0;
    }

    ~Ring()
    {
        clear();
        ::operator delete(buf);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf[(head + i) & (cap - 1)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf[(head + i) & (cap - 1)];
    }

    void
    push_back(T v)
    {
        if (count == cap)
            grow();
        ::new (static_cast<void *>(&buf[(head + count) & (cap - 1)]))
            T(std::move(v));
        ++count;
    }

    void
    pop_front()
    {
        buf[head].~T();
        head = (head + 1) & (cap - 1);
        --count;
    }

    void
    clear()
    {
        while (count > 0)
            pop_front();
    }

  private:
    void
    grow()
    {
        const std::size_t ncap = cap == 0 ? 4 : cap * 2;
        T *nbuf = static_cast<T *>(::operator new(ncap * sizeof(T)));
        for (std::size_t i = 0; i < count; ++i) {
            T &src = buf[(head + i) & (cap - 1)];
            ::new (static_cast<void *>(&nbuf[i])) T(std::move(src));
            src.~T();
        }
        ::operator delete(buf);
        buf = nbuf;
        cap = ncap;
        head = 0;
    }

    T *buf = nullptr;
    std::size_t cap = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace dimmlink

#endif // DIMMLINK_COMMON_RING_HH
