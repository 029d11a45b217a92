// A stateless allocator (every instance shares one process-wide spare list)
// that backs large buffers with 2 MiB huge pages — the storage behind the
// simulator's message arenas (DESIGN.md §4).
//
// In the dense regime a round moves Θ(m) messages through arenas of hundreds
// of megabytes, and the stable scatter writes them to random receiver slices.
// With 4 KiB pages nearly every such write is a TLB miss and the first touch
// of every page is a kernel fault; 2 MiB pages cut both by 512×.
//
// Allocations of kHugePageBytes or more are served by a 2 MiB-aligned
// anonymous mmap advised MADV_HUGEPAGE (an aligned_alloc'd huge block would
// linger on the malloc heap after it is freed and inflate RSS).  Smaller
// requests use malloc/free.
//
// Freed mappings are not unmapped at once: the last kMaxSpareMappings stay
// behind a mutex as spares, and a later request of the same mapped size
// takes one with its pages already faulted in.  That is what back-to-back
// solves on one graph ask for — the same two arena sizes every time — and it
// spares each solve the kernel's page zeroing.  A huge request of any other
// size unmaps every spare before it maps, so the spares never add to a
// differently shaped working set; release_huge_page_spares() hands them back
// on demand.
//
// Non-Linux builds and sanitizer builds (DHC_SANITIZE, which defines
// DHC_SANITIZE_BUILD) use std::allocator instead, so ASan's redzones and
// shadow memory see every arena access.
#pragma once

#include <cstddef>
#include <memory>
#include <new>

#if defined(__linux__) && !defined(DHC_SANITIZE_BUILD)
#define DHC_HUGE_PAGE_ARENAS 1
#else
#define DHC_HUGE_PAGE_ARENAS 0
#endif

namespace dhc::support {

/// Huge-page size, and the allocation size from which HugePageAllocator maps
/// memory instead of calling malloc.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// How many freed huge mappings the allocator keeps for reuse.
inline constexpr std::size_t kMaxSpareMappings = 2;

/// Unmaps the spare mappings kept for reuse (a no-op in fallback builds).
void release_huge_page_spares() noexcept;

#if DHC_HUGE_PAGE_ARENAS

namespace detail {
/// Returns `bytes` of storage aligned for any fundamental type; throws
/// std::bad_alloc on failure.
void* huge_page_allocate(std::size_t bytes);
/// Releases storage from huge_page_allocate; `bytes` must match the request.
void huge_page_deallocate(void* p, std::size_t bytes) noexcept;
/// Number of spare mappings currently kept for reuse.
std::size_t huge_page_spare_count() noexcept;
}  // namespace detail

template <typename T>
class HugePageAllocator {
 public:
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "HugePageAllocator serves only fundamental alignments");
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_array_new_length();
    return static_cast<T*>(detail::huge_page_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { detail::huge_page_deallocate(p, n * sizeof(T)); }

  friend bool operator==(const HugePageAllocator&, const HugePageAllocator&) noexcept {
    return true;
  }
};

#else

template <typename T>
using HugePageAllocator = std::allocator<T>;

#endif

}  // namespace dhc::support
