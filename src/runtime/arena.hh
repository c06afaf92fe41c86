/**
 * @file
 * Bump-pointer scratch arena for die-population hot loops.
 *
 * Manufacturing one die allocates megabytes of short-lived scratch
 * (the m x m circulant noise plane) that was previously
 * round-tripping operator new — and, for vectors,
 * paying a zero-fill the generator immediately overwrites. The arena
 * keeps its blocks alive across dies (thread-local, one per
 * parallelFor worker), so steady-state manufacture within a lot does
 * no allocation at all.
 *
 * Discipline is strictly stack-like: take a Scope, alloc() freely,
 * and everything allocated inside is released when the Scope dies.
 * Memory comes back uninitialised.
 */

#ifndef VARSCHED_RUNTIME_ARENA_HH
#define VARSCHED_RUNTIME_ARENA_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace varsched
{

/**
 * Process-wide count of bytes served out of every BumpArena (after
 * cache-line rounding). Observability only: PerfRecorder reports it as
 * `arena_bytes` so a regression in arena reuse (e.g. a Scope leak
 * forcing fresh blocks) shows up in the bench JSON.
 */
inline std::atomic<std::uint64_t> &
arenaBytesServed()
{
    static std::atomic<std::uint64_t> bytes{0};
    return bytes;
}

class BumpArena
{
  public:
    explicit BumpArena(std::size_t blockBytes = std::size_t{1} << 21)
        : blockBytes_(blockBytes)
    {
    }

    BumpArena(const BumpArena &) = delete;
    BumpArena &operator=(const BumpArena &) = delete;

    /**
     * Uninitialised storage for @p count objects of trivially-
     * destructible type T, 64-byte aligned. Valid until the enclosing
     * Scope (or reset()) releases it.
     */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is released without destructors");
        const std::size_t bytes = count * sizeof(T);
        return reinterpret_cast<T *>(allocBytes(bytes));
    }

    /** Release everything; blocks are kept for reuse. */
    void
    reset()
    {
        for (Block &b : blocks_)
            b.used = 0;
        active_ = 0;
    }

    /** Total bytes of backing blocks currently held. */
    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Block &b : blocks_)
            total += b.size;
        return total;
    }

    /**
     * RAII release point: allocations made while a Scope is alive are
     * handed back (for reuse, not to the OS) when it destructs.
     * Scopes must nest like a stack.
     */
    class Scope
    {
      public:
        explicit Scope(BumpArena &arena)
            : arena_(arena), block_(arena.active_),
              used_(arena.blocks_.empty()
                        ? 0
                        : arena.blocks_[arena.active_].used)
        {
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        ~Scope()
        {
            arena_.releaseTo(block_, used_);
        }

      private:
        BumpArena &arena_;
        std::size_t block_;
        std::size_t used_;
    };

  private:
    static constexpr std::size_t kAlign = 64;

    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    std::byte *
    allocBytes(std::size_t bytes)
    {
        const std::size_t rounded = (bytes + kAlign - 1) & ~(kAlign - 1);
        arenaBytesServed().fetch_add(rounded,
                                     std::memory_order_relaxed);
        while (active_ < blocks_.size()) {
            Block &b = blocks_[active_];
            if (b.size - b.used >= rounded) {
                std::byte *p = b.data.get() + b.used;
                b.used += rounded;
                return p;
            }
            // Stack discipline guarantees later blocks are empty; a
            // block too small for this request is simply skipped.
            ++active_;
        }
        // Plain new[]: the SIMD kernels use unaligned loads, so the
        // 64-byte kAlign rounding is only cache-line padding between
        // allocations, not a hard alignment requirement.
        Block fresh;
        fresh.size = std::max(blockBytes_, rounded);
        fresh.data.reset(new std::byte[fresh.size]);
        fresh.used = rounded;
        blocks_.push_back(std::move(fresh));
        active_ = blocks_.size() - 1;
        return blocks_.back().data.get();
    }

    void
    releaseTo(std::size_t block, std::size_t used)
    {
        for (std::size_t i = block + 1; i < blocks_.size(); ++i)
            blocks_[i].used = 0;
        if (block < blocks_.size())
            blocks_[block].used = used;
        active_ = blocks_.empty() ? 0 : std::min(block, blocks_.size() - 1);
    }

    std::size_t blockBytes_;
    std::vector<Block> blocks_;
    std::size_t active_ = 0;
};

/**
 * The per-thread scratch arena the die-manufacture hot path draws
 * from (variation-field noise planes, batched-kernel staging). One
 * arena per worker thread: no locks, and a worker's blocks are reused
 * for every die it builds.
 */
inline BumpArena &
dieScratchArena()
{
    static thread_local BumpArena arena;
    return arena;
}

} // namespace varsched

#endif // VARSCHED_RUNTIME_ARENA_HH
