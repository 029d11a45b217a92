#include "support/huge_page_allocator.h"

#if DHC_HUGE_PAGE_ARENAS

#include <sys/mman.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <mutex>

namespace dhc::support {

namespace {

std::size_t mapped_bytes(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

// Released mappings kept for the next request of the same mapped size, most
// recently freed first.  Contents are never read back, so reuse changes
// speed and residency, never behavior.
struct SpareList {
  struct Mapping {
    void* p = nullptr;
    std::size_t size = 0;
  };
  std::mutex mutex;
  std::array<Mapping, kMaxSpareMappings> slots{};
  std::size_t count = 0;
};

SpareList spares;

// Unmaps every spare.  Caller holds spares.mutex.
void unmap_spares_locked() noexcept {
  for (std::size_t i = 0; i < spares.count; ++i) munmap(spares.slots[i].p, spares.slots[i].size);
  spares.count = 0;
}

}  // namespace

void release_huge_page_spares() noexcept {
  const std::lock_guard<std::mutex> lock(spares.mutex);
  unmap_spares_locked();
}

namespace detail {

std::size_t huge_page_spare_count() noexcept {
  const std::lock_guard<std::mutex> lock(spares.mutex);
  return spares.count;
}

void* huge_page_allocate(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    void* p = std::malloc(bytes == 0 ? 1 : bytes);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  const std::size_t size = mapped_bytes(bytes);
  if (size < bytes || size + kHugePageBytes < size) throw std::bad_alloc();
  {
    // A spare of exactly this size is handed out as is; any other size
    // unmaps them all first, so the spares never add to a differently
    // shaped working set.
    const std::lock_guard<std::mutex> lock(spares.mutex);
    for (std::size_t i = 0; i < spares.count; ++i) {
      if (spares.slots[i].size != size) continue;
      void* p = spares.slots[i].p;
      for (std::size_t j = i + 1; j < spares.count; ++j) spares.slots[j - 1] = spares.slots[j];
      --spares.count;
      return p;
    }
    unmap_spares_locked();
  }
  // Over-map by one huge page, then trim the head and tail so the mapping
  // starts on a 2 MiB boundary — only aligned 2 MiB ranges can be backed by
  // huge pages.
  void* raw = mmap(nullptr, size + kHugePageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::size_t head = aligned - base;
  if (head != 0) munmap(raw, head);
  munmap(reinterpret_cast<void*>(aligned + size), kHugePageBytes - head);
  void* p = reinterpret_cast<void*>(aligned);
  // Advisory: without transparent huge pages the mapping simply keeps 4 KiB
  // pages, so a failure here changes speed, never behavior.
  (void)madvise(p, size, MADV_HUGEPAGE);
  return p;
}

void huge_page_deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kHugePageBytes) {
    std::free(p);
    return;
  }
  const std::size_t size = mapped_bytes(bytes);
  const std::lock_guard<std::mutex> lock(spares.mutex);
  if (spares.count == kMaxSpareMappings) {
    --spares.count;
    munmap(spares.slots[spares.count].p, spares.slots[spares.count].size);
  }
  for (std::size_t j = spares.count; j > 0; --j) spares.slots[j] = spares.slots[j - 1];
  spares.slots[0] = {p, size};
  ++spares.count;
}

}  // namespace detail

}  // namespace dhc::support

#else

namespace dhc::support {

void release_huge_page_spares() noexcept {}

}  // namespace dhc::support

#endif  // DHC_HUGE_PAGE_ARENAS
