// MessageArena: the simulator's message buffers on the huge-page allocator
// (support/huge_page_allocator.h).  Requests below 2 MiB come from malloc,
// larger ones from 2 MiB-aligned mappings, so these tests walk contents
// across that boundary in both directions — growth, swap, shrink_to_fit,
// clear-then-regrow — and pin the allocator's size classes directly.
// Sanitizer builds run the same tests on the std::allocator fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "support/huge_page_allocator.h"

namespace dhc::congest {
namespace {

using support::kHugePageBytes;

// Sanitizer builds must see every arena access, so they — and non-Linux
// builds — compile the std::allocator fallback.
#if defined(DHC_SANITIZE_BUILD) || !defined(__linux__)
static_assert(std::is_same_v<MessageArena, std::vector<Message>>,
              "sanitizer and non-Linux builds must use the std::allocator fallback");
#endif

// Messages per 2 MiB: arenas past this size take the mapped path.
constexpr std::size_t kThreshold = kHugePageBytes / sizeof(Message);

Message numbered(std::size_t i) {
  Message m = Message::make(static_cast<std::uint16_t>(i & 0xffff),
                            {static_cast<std::int64_t>(i), -static_cast<std::int64_t>(i)});
  m.from = static_cast<NodeId>(i);
  m.to = static_cast<NodeId>(i * 7);
  m.rel_seq = static_cast<std::uint32_t>(i + 1);
  return m;
}

// Checks arena[0..count) against numbered(base + i); returns the first
// mismatching index, or count when all match.
std::size_t first_mismatch(const MessageArena& arena, std::size_t count, std::size_t base = 0) {
  for (std::size_t i = 0; i < count; ++i) {
    const Message want = numbered(base + i);
    const Message& got = arena[i];
    if (got.from != want.from || got.to != want.to || got.tag != want.tag ||
        got.words != want.words || got.rel_seq != want.rel_seq || got.data != want.data) {
      return i;
    }
  }
  return count;
}

TEST(MessageArena, ContentsSurviveGrowthAcrossTheHugePageThreshold) {
  MessageArena arena;
  const std::size_t target = 3 * kThreshold + 17;
  std::size_t reallocations = 0;
  for (std::size_t i = 0; i < target; ++i) {
    const std::size_t cap = arena.capacity();
    arena.push_back(numbered(i));
    if (arena.capacity() != cap) {
      ++reallocations;
      ASSERT_EQ(first_mismatch(arena, arena.size()), arena.size()) << "after growth to " << i;
    }
  }
  EXPECT_GT(reallocations, 3u);
  EXPECT_GT(arena.capacity() * sizeof(Message), 2 * kHugePageBytes);
  EXPECT_EQ(first_mismatch(arena, target), target);
}

TEST(MessageArena, SwapExchangesSmallAndMappedStorage) {
  MessageArena small;
  MessageArena large;
  for (std::size_t i = 0; i < 10; ++i) small.push_back(numbered(i));
  for (std::size_t i = 0; i < 2 * kThreshold; ++i) large.push_back(numbered(1000 + i));
  const Message* small_data = small.data();
  const Message* large_data = large.data();

  small.swap(large);
  EXPECT_EQ(small.data(), large_data);
  EXPECT_EQ(large.data(), small_data);
  ASSERT_EQ(small.size(), 2 * kThreshold);
  ASSERT_EQ(large.size(), 10u);
  EXPECT_EQ(first_mismatch(small, small.size(), 1000), small.size());
  EXPECT_EQ(first_mismatch(large, large.size()), large.size());

  // Releasing the swapped-in storage goes back through the matching path.
  MessageArena().swap(small);
  EXPECT_EQ(small.capacity(), 0u);
  EXPECT_EQ(first_mismatch(large, large.size()), large.size());
}

TEST(MessageArena, ShrinkToFitCrossesBackBelowTheThreshold) {
  MessageArena arena;
  for (std::size_t i = 0; i < 3 * kThreshold; ++i) arena.push_back(numbered(i));

  // Still mapped after the shrink (a smaller mapping) ...
  arena.resize(kThreshold + 5);
  arena.shrink_to_fit();
  EXPECT_EQ(arena.capacity(), kThreshold + 5);
  EXPECT_EQ(first_mismatch(arena, arena.size()), arena.size());

  // ... then below 2 MiB: the contents move to malloc'd storage.
  arena.resize(100);
  arena.shrink_to_fit();
  EXPECT_EQ(arena.capacity(), 100u);
  EXPECT_EQ(first_mismatch(arena, arena.size()), arena.size());

  arena.clear();
  arena.shrink_to_fit();
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(MessageArena, ClearKeepsCapacityAndRegrowsPastIt) {
  MessageArena arena;
  for (std::size_t i = 0; i < kThreshold + 1; ++i) arena.push_back(numbered(i));
  const std::size_t cap = arena.capacity();

  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.capacity(), cap);

  const std::size_t regrown = 2 * cap + 3;
  for (std::size_t i = 0; i < regrown; ++i) arena.push_back(numbered(500 + i));
  EXPECT_GT(arena.capacity(), cap);
  EXPECT_EQ(first_mismatch(arena, regrown, 500), regrown);

  // The resize path the inbox arena uses: value-initialized fresh slots.
  arena.clear();
  arena.resize(regrown + 10);
  EXPECT_EQ(arena[regrown + 9].from, kNoNode);
  EXPECT_EQ(arena[regrown + 9].words, 0u);
}

TEST(HugePageAllocator, EverySizeClassIsUsableEndToEnd) {
  support::HugePageAllocator<unsigned char> alloc;
  for (const std::size_t bytes :
       {std::size_t{64}, kHugePageBytes - 1, kHugePageBytes, kHugePageBytes + 1,
        3 * kHugePageBytes + 4096}) {
    unsigned char* p = alloc.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::max_align_t), 0u);
#if DHC_HUGE_PAGE_ARENAS
    if (bytes >= kHugePageBytes) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes, 0u) << bytes;
    }
#endif
    p[0] = 0x5a;
    p[bytes - 1] = 0xa5;
    EXPECT_EQ(p[0], 0x5a);
    EXPECT_EQ(p[bytes - 1], 0xa5);
    alloc.deallocate(p, bytes);
  }
}

}  // namespace
}  // namespace dhc::congest
