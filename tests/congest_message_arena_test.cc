// MessageArena: the simulator's message buffers on the huge-page allocator
// (support/huge_page_allocator.h).  Requests below 2 MiB come from malloc,
// larger ones from 2 MiB-aligned mappings, so these tests walk contents
// across that boundary in both directions — growth, swap, shrink_to_fit,
// clear-then-regrow — and pin the allocator's size classes and its reuse of
// freed mappings directly.
// Sanitizer builds run the same tests on the std::allocator fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
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

#if DHC_HUGE_PAGE_ARENAS

// Freed mappings stay behind as spares for a later request of the same
// mapped size (DESIGN.md §4).  Other tests in this binary free mappings
// too, so each case starts from an empty spare list.
using support::detail::huge_page_spare_count;

TEST(HugePageAllocator, FreedMappingIsReusedBySameSizeRequest) {
  support::release_huge_page_spares();
  support::HugePageAllocator<unsigned char> alloc;
  unsigned char* p = alloc.allocate(3 * kHugePageBytes + 100);
  p[0] = 0x5a;
  alloc.deallocate(p, 3 * kHugePageBytes + 100);
  EXPECT_EQ(huge_page_spare_count(), 1u);

  // Small requests come from malloc and leave the spares alone.
  unsigned char* small = alloc.allocate(64);
  alloc.deallocate(small, 64);
  EXPECT_EQ(huge_page_spare_count(), 1u);

  // Both requests round up to four huge pages: the same mapping comes back.
  unsigned char* q = alloc.allocate(4 * kHugePageBytes);
  EXPECT_EQ(q, p);
  EXPECT_EQ(huge_page_spare_count(), 0u);
  q[4 * kHugePageBytes - 1] = 0xa5;
  alloc.deallocate(q, 4 * kHugePageBytes);
  support::release_huge_page_spares();
}

TEST(HugePageAllocator, OtherSizeRequestUnmapsTheSpares) {
  support::release_huge_page_spares();
  support::HugePageAllocator<unsigned char> alloc;
  unsigned char* a = alloc.allocate(2 * kHugePageBytes);
  unsigned char* b = alloc.allocate(2 * kHugePageBytes);
  unsigned char* c = alloc.allocate(2 * kHugePageBytes);
  alloc.deallocate(a, 2 * kHugePageBytes);
  alloc.deallocate(b, 2 * kHugePageBytes);
  alloc.deallocate(c, 2 * kHugePageBytes);
  EXPECT_EQ(huge_page_spare_count(), support::kMaxSpareMappings);

  unsigned char* other = alloc.allocate(5 * kHugePageBytes);
  EXPECT_EQ(huge_page_spare_count(), 0u);
  other[0] = 1;
  other[5 * kHugePageBytes - 1] = 2;
  EXPECT_EQ(other[0] + other[5 * kHugePageBytes - 1], 3);
  alloc.deallocate(other, 5 * kHugePageBytes);
  support::release_huge_page_spares();
}

TEST(HugePageAllocator, ReleaseEmptiesTheSpareList) {
  support::HugePageAllocator<unsigned char> alloc;
  unsigned char* a = alloc.allocate(kHugePageBytes);
  unsigned char* b = alloc.allocate(kHugePageBytes);
  alloc.deallocate(a, kHugePageBytes);
  alloc.deallocate(b, kHugePageBytes);
  EXPECT_GT(huge_page_spare_count(), 0u);
  support::release_huge_page_spares();
  EXPECT_EQ(huge_page_spare_count(), 0u);
  support::release_huge_page_spares();  // idempotent
  EXPECT_EQ(huge_page_spare_count(), 0u);
}

// TSan builds use the std::allocator fallback and never see the spare
// list's lock, so this stress case is its only concurrent check: four
// threads allocate, fill, verify and free mappings of three sizes, so
// spares are handed out, replaced and unmapped under contention.
TEST(HugePageAllocator, ConcurrentAllocateAndFreeKeepBlocksPrivate) {
  support::release_huge_page_spares();
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      support::HugePageAllocator<unsigned char> alloc;
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t bytes = static_cast<std::size_t>(1 + (t + i) % 3) * kHugePageBytes;
        unsigned char* p = alloc.allocate(bytes);
        const auto mark = static_cast<unsigned char>(t * 64 + i % 64);
        p[0] = mark;
        p[bytes / 2] = mark;
        p[bytes - 1] = mark;
        std::this_thread::yield();
        if (p[0] != mark || p[bytes / 2] != mark || p[bytes - 1] != mark) ++failures[t];
        alloc.deallocate(p, bytes);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  EXPECT_LE(huge_page_spare_count(), support::kMaxSpareMappings);
  support::release_huge_page_spares();
  EXPECT_EQ(huge_page_spare_count(), 0u);
}

#endif  // DHC_HUGE_PAGE_ARENAS

}  // namespace
}  // namespace dhc::congest
