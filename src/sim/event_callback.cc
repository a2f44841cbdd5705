#include "sim/event_callback.hh"

#include <cstdlib>
#include <vector>

namespace dimmlink {
namespace detail {

namespace {

/**
 * Power-of-two size classes from 64 B to 4 KiB. Captures beyond the
 * largest class (none exist in the simulator today) fall through to
 * operator new.
 */
constexpr std::size_t minClassBytes = 64;
constexpr std::size_t maxClassBytes = 4096;
constexpr unsigned numClasses = 7; // 64,128,256,512,1024,2048,4096

/** Blocks carved per slab refill; slabs are never returned to the OS. */
constexpr std::size_t blocksPerSlab = 64;

struct FreeNode
{
    FreeNode *next;
};

struct Pool
{
    FreeNode *freeList[numClasses] = {};
    // Slab backing storage. Deliberately leaked (no destructor): a
    // block can still be live in an event queue when its thread's
    // pool is destroyed at thread exit, and freeing the slab would
    // leave that callback dangling. The leak is bounded by each
    // thread's allocation high-water mark.
    std::vector<void *> slabs;
};

Pool &
pool()
{
    // One pool per thread: allocation and the free-list push in
    // deallocate() are single-threaded without locks. Blocks of one
    // size class are interchangeable, so a block allocated on thread
    // A and freed on thread B simply joins B's free list.
    static thread_local Pool p;
    return p;
}

unsigned
classOf(std::size_t bytes)
{
    std::size_t sz = minClassBytes;
    unsigned cls = 0;
    while (sz < bytes) {
        sz <<= 1;
        ++cls;
    }
    return cls;
}

std::size_t
classBytes(unsigned cls)
{
    return minClassBytes << cls;
}

} // namespace

void *
CallbackArena::allocate(std::size_t bytes)
{
    if (bytes > maxClassBytes)
        return ::operator new(bytes);
    const unsigned cls = classOf(bytes);
    Pool &p = pool();
    if (!p.freeList[cls]) {
        // Refill: carve one slab into blocksPerSlab free blocks.
        const std::size_t bsz = classBytes(cls);
        auto *slab = static_cast<unsigned char *>(
            ::operator new(bsz * blocksPerSlab));
        p.slabs.push_back(slab);
        for (std::size_t i = 0; i < blocksPerSlab; ++i) {
            auto *node = reinterpret_cast<FreeNode *>(slab + i * bsz);
            node->next = p.freeList[cls];
            p.freeList[cls] = node;
        }
    }
    FreeNode *node = p.freeList[cls];
    p.freeList[cls] = node->next;
    return node;
}

void
CallbackArena::deallocate(void *ptr, std::size_t bytes) noexcept
{
    if (bytes > maxClassBytes) {
        ::operator delete(ptr);
        return;
    }
    const unsigned cls = classOf(bytes);
    Pool &p = pool();
    auto *node = static_cast<FreeNode *>(ptr);
    node->next = p.freeList[cls];
    p.freeList[cls] = node;
}

} // namespace detail
} // namespace dimmlink
