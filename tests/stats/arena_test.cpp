// Unit tests for the bump allocator behind the study's scratch arrays.
#include "stats/arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <thread>

namespace vdbench::stats {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  void* a = arena.allocate(1, 1);
  void* b = arena.allocate(8, 64);
  void* c = arena.allocate(3, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 2, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_GE(arena.used(), std::size_t{12});
}

TEST(ArenaTest, ZeroByteAllocationIsValid) {
  Arena arena;
  EXPECT_NE(arena.allocate(0, 8), nullptr);
}

TEST(ArenaTest, NonPowerOfTwoAlignmentThrows) {
  Arena arena;
  EXPECT_THROW((void)arena.allocate(8, 3), std::invalid_argument);
  EXPECT_THROW((void)arena.allocate(8, 0), std::invalid_argument);
}

TEST(ArenaTest, GrowsGeometricallyAcrossBlocks) {
  Arena arena(/*first_block_bytes=*/128);
  (void)arena.allocate(128, 1);
  EXPECT_EQ(arena.block_count(), 1u);
  (void)arena.allocate(129, 1);  // does not fit the first block
  EXPECT_EQ(arena.block_count(), 2u);
  EXPECT_GE(arena.capacity(), std::size_t{128 + 256});
  // An oversized request gets a block at least that large.
  (void)arena.allocate(10'000, 8);
  EXPECT_GE(arena.capacity(), std::size_t{10'000});
}

TEST(ArenaTest, ResetRetainsBlocksAndReusesMemory) {
  Arena arena(/*first_block_bytes=*/256);
  void* first = arena.allocate(64, 8);
  (void)arena.allocate(4096, 8);  // force a second block
  const std::size_t capacity = arena.capacity();
  const std::size_t blocks = arena.block_count();
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.block_count(), blocks);
  // Steady state: the same memory is handed out again, no new blocks.
  EXPECT_EQ(arena.allocate(64, 8), first);
  EXPECT_EQ(arena.block_count(), blocks);
}

TEST(ArenaTest, AllocateSpanIsTypedAndWritable) {
  Arena arena;
  const std::span<double> xs = arena.allocate_span<double>(10);
  ASSERT_EQ(xs.size(), 10u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(xs.data()) % alignof(double), 0u);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = static_cast<double>(i);
  EXPECT_EQ(xs[9], 9.0);
  const std::span<double> empty = arena.allocate_span<double>(0);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(ArenaTest, PoisonModeFillsReclaimedMemoryOnReset) {
  ASSERT_EQ(setenv("VDBENCH_ARENA_POISON", "1", 1), 0);
  Arena arena;  // reads the env var at construction
  unsetenv("VDBENCH_ARENA_POISON");
  ASSERT_TRUE(arena.poison_enabled());
  const std::span<unsigned char> bytes = arena.allocate_span<unsigned char>(64);
  std::fill(bytes.begin(), bytes.end(), static_cast<unsigned char>(0));
  unsigned char* raw = bytes.data();
  arena.reset();
  // The block is retained, so the old storage is still owned by the arena
  // and must now read back as the poison pattern.
  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_EQ(raw[i], 0xA5u) << "byte " << i << " not poisoned";
}

TEST(ArenaTest, PoisonDisabledByDefault) {
  unsetenv("VDBENCH_ARENA_POISON");
  Arena arena;
  EXPECT_FALSE(arena.poison_enabled());
}

TEST(ArenaTest, ScratchIsPerThread) {
  Arena* main_scratch = &Arena::scratch();
  Arena* other_scratch = nullptr;
  std::thread worker([&] { other_scratch = &Arena::scratch(); });
  worker.join();
  EXPECT_EQ(main_scratch, &Arena::scratch());
  EXPECT_NE(main_scratch, other_scratch);
}

}  // namespace
}  // namespace vdbench::stats
