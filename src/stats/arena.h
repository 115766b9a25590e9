// Bump allocator for per-batch scratch memory.
//
// The property assessor's parallel context fills and the bootstrap
// resampling loop need short-lived arrays whose lifetime is one batch or
// one call: sampled contexts, resample buffers. Allocating them
// from the general heap puts malloc/free on the hottest loops of the
// study; the Arena instead hands out pointers from large blocks with a
// single bump, and reclaims everything at once with reset().
//
// Contract:
//  - allocate() is O(1) amortised; blocks grow geometrically and are
//    RETAINED by reset(), so a warmed-up arena allocates nothing from the
//    heap in steady state (asserted by the operator-new-counting test).
//  - No per-object destruction ever runs: allocate_span<T> is restricted
//    to trivially-destructible T.
//  - reset() invalidates every pointer previously handed out. With
//    VDBENCH_ARENA_POISON set (any non-empty value), reset() fills the
//    reclaimed memory with 0xA5 so use-after-reset bugs read garbage
//    loudly instead of stale-but-plausible values.
//  - An Arena is single-threaded. Parallel tasks use Arena::scratch(),
//    a thread_local instance, so concurrent tasks never share one.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace vdbench::stats {

class Arena {
 public:
  /// `first_block_bytes` sizes the initial heap block (allocated lazily on
  /// first use, not in the constructor).
  explicit Arena(std::size_t first_block_bytes = kDefaultFirstBlockBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation of `bytes` aligned to `alignment` (a power of two).
  /// The returned memory is uninitialised and lives until the next
  /// reset(). bytes == 0 returns a valid non-null pointer.
  /// Throws std::invalid_argument on a non-power-of-two alignment.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t alignment);

  /// Typed allocation of `count` elements. The elements are
  /// UNINITIALISED; callers fill every slot before reading.
  template <typename T>
  [[nodiscard]] std::span<T> allocate_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    T* data = static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    return {data, count};
  }

  /// Reclaim every allocation at once. Blocks are kept (capacity is
  /// retained across batches); in poison mode their contents are
  /// overwritten with 0xA5 first.
  void reset() noexcept;

  /// Bytes currently handed out since the last reset().
  [[nodiscard]] std::size_t used() const noexcept;
  /// Total bytes held in blocks (retained across reset()).
  [[nodiscard]] std::size_t capacity() const noexcept;
  /// Number of heap blocks backing the arena.
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  /// True when VDBENCH_ARENA_POISON enabled the debug poison fill.
  [[nodiscard]] bool poison_enabled() const noexcept { return poison_; }

  /// Per-thread scratch arena for leaf-scope use inside parallel tasks
  /// and hot library functions: reset() it, fill it, consume the data,
  /// and do not hold pointers across calls into code that may also use
  /// the scratch arena on this thread.
  [[nodiscard]] static Arena& scratch();

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kDefaultFirstBlockBytes = 16 * 1024;

  Block& grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< index of the block currently bumping
  std::size_t first_block_bytes_;
  bool poison_;
};

}  // namespace vdbench::stats
