#include "stats/arena.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "stats/env.h"

namespace vdbench::stats {

namespace {

constexpr std::byte kPoisonByte{0xA5};

bool poison_from_env() {
  return env_string("VDBENCH_ARENA_POISON").has_value();
}

}  // namespace

Arena::Arena(std::size_t first_block_bytes)
    : first_block_bytes_(first_block_bytes == 0 ? kDefaultFirstBlockBytes
                                                : first_block_bytes),
      poison_(poison_from_env()) {}

void* Arena::allocate(std::size_t bytes, std::size_t alignment) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0)
    throw std::invalid_argument("Arena: alignment must be a power of two");
  // Try the active block, then any later retained block, then grow.
  for (;; ++active_) {
    if (active_ >= blocks_.size()) {
      grow(bytes + alignment);
      // grow() appends; active_ now indexes the fresh block.
    }
    Block& block = blocks_[active_];
    const auto base = reinterpret_cast<std::uintptr_t>(block.data.get());
    const std::uintptr_t cursor = base + block.used;
    const std::uintptr_t aligned = (cursor + alignment - 1) & ~(alignment - 1);
    const std::size_t needed = (aligned - base) + bytes;
    if (needed <= block.size) {
      block.used = needed;
      return reinterpret_cast<void*>(aligned);
    }
  }
}

Arena::Block& Arena::grow(std::size_t min_bytes) {
  std::size_t next = blocks_.empty() ? first_block_bytes_
                                     : blocks_.back().size * 2;
  if (next < min_bytes) next = min_bytes;
  Block block;
  block.data = std::make_unique<std::byte[]>(next);
  block.size = next;
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

void Arena::reset() noexcept {
  for (Block& block : blocks_) {
    if (poison_ && block.used > 0)
      std::memset(block.data.get(), static_cast<int>(kPoisonByte), block.used);
    block.used = 0;
  }
  active_ = 0;
}

std::size_t Arena::used() const noexcept {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.used;
  return total;
}

std::size_t Arena::capacity() const noexcept {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

}  // namespace vdbench::stats
