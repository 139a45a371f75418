#pragma once

// Memory for the large arrays that the engines read at random: the direct
// access ELT tables today, the YET buffers next. A random 8-byte load over
// hundreds of MB misses the TLB on nearly every access when the array sits
// on 4 KiB pages; a 2 MiB page covers 512 times as much.
//
// Requests of at least kHugePageBytes get fresh anonymous memory of their
// own (mmap, never recycled heap memory that an earlier owner already
// touched): 2 MiB-aligned, rounded up to whole 2 MiB pages, and advised
// with madvise(MADV_HUGEPAGE) while still untouched, so the first write
// faults in huge pages whenever transparent huge pages are `always` or
// `madvise`. A PROT_NONE guard page follows each such allocation, so two
// of them never merge into one mapping. madvise is a hint: when it fails,
// or THP is `never`, the memory is ordinary 4 KiB pages and every result
// is the same. Smaller requests take operator new.
//
// In AddressSanitizer builds the rounded-up tail is poisoned, so a read
// past the requested bytes is reported as it was on the heap.

#include <cstddef>

namespace are::mem {

/// The transparent huge page size, and the request size from which
/// allocate() maps huge-page-advised memory.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// True when allocate(bytes) maps its own huge-page-advised memory.
constexpr bool uses_huge_pages(std::size_t bytes) noexcept { return bytes >= kHugePageBytes; }

/// Bytes that allocate(bytes) occupies: whole 2 MiB pages on the huge-page
/// path, `bytes` below it.
constexpr std::size_t allocated_bytes(std::size_t bytes) noexcept {
  return uses_huge_pages(bytes) ? (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes
                                : bytes;
}

/// `bytes` of uninitialised memory, aligned for any scalar type (and to
/// 2 MiB on the huge-page path). Throws std::bad_alloc.
void* allocate(std::size_t bytes);

/// Frees what allocate(bytes) returned, with the same `bytes`.
void deallocate(void* pointer, std::size_t bytes) noexcept;

/// Bytes of [pointer, pointer + bytes) that the operating system backs
/// with huge pages: the AnonHugePages of each /proc/self/smaps mapping that overlaps
/// the range, counted once and clipped to the overlap. 0 off Linux or when
/// smaps cannot be read. Walks every mapping of the process, so call it
/// only where telemetry asked for it.
std::size_t huge_page_bytes(const void* pointer, std::size_t bytes);

/// allocate()/deallocate() as a standard allocator, for std::vector.
template <typename T>
struct HugePageAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "the operator new path guarantees only the default new alignment");
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) { return static_cast<T*>(mem::allocate(count * sizeof(T))); }
  void deallocate(T* pointer, std::size_t count) noexcept {
    mem::deallocate(pointer, count * sizeof(T));
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace are::mem
