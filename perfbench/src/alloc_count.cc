/**
 * @file
 * Counting replacements of the global operator new/delete. They are a
 * matched malloc/free pair; the counter is a relaxed atomic so a
 * stray library thread cannot make it a data race.
 */

#include "alloc_count.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// GCC's allocator-pairing checker cannot see that the replaced
// operators below are a matched malloc/free pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(n)
        : std::aligned_alloc(align, (n + align - 1) & ~(align - 1));
    if (!p)
        throw std::bad_alloc{};
    return p;
}
} // namespace

namespace perfbench {

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace perfbench

void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
