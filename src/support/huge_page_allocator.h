// A stateless allocator that backs large buffers with 2 MiB huge pages — the
// storage behind the simulator's message arenas (DESIGN.md §4).
//
// In the dense regime a round moves Θ(m) messages through arenas of hundreds
// of megabytes, and the stable scatter writes them to random receiver slices.
// With 4 KiB pages nearly every such write is a TLB miss and the first touch
// of every page is a kernel fault; 2 MiB pages cut both by 512×.
//
// Allocations of kHugePageBytes or more are served by a 2 MiB-aligned
// anonymous mmap advised MADV_HUGEPAGE and returned with munmap, so freed
// arenas go straight back to the kernel (an aligned_alloc'd huge block
// instead lingers on the malloc heap and inflates RSS).  Smaller requests use
// malloc/free.
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

#if DHC_HUGE_PAGE_ARENAS

namespace detail {
/// Returns `bytes` of storage aligned for any fundamental type; throws
/// std::bad_alloc on failure.
void* huge_page_allocate(std::size_t bytes);
/// Releases storage from huge_page_allocate; `bytes` must match the request.
void huge_page_deallocate(void* p, std::size_t bytes) noexcept;
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
