#include "support/huge_page_allocator.h"

#if DHC_HUGE_PAGE_ARENAS

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>

namespace dhc::support::detail {

namespace {

std::size_t mapped_bytes(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* huge_page_allocate(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    void* p = std::malloc(bytes == 0 ? 1 : bytes);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  // Over-map by one huge page, then trim the head and tail so the mapping
  // starts on a 2 MiB boundary — only aligned 2 MiB ranges can be backed by
  // huge pages.
  const std::size_t size = mapped_bytes(bytes);
  if (size < bytes || size + kHugePageBytes < size) throw std::bad_alloc();
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
  munmap(p, mapped_bytes(bytes));
}

}  // namespace dhc::support::detail

#endif  // DHC_HUGE_PAGE_ARENAS
