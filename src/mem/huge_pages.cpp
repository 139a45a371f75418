#include "mem/huge_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <new>
#include <string>
#include <string_view>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace are::mem {

namespace {

std::size_t page_bytes() noexcept {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

std::uintptr_t parse_hex(const char* first, const char* last) noexcept {
  std::uintptr_t value = 0;
  std::from_chars(first, last, value, 16);
  return value;
}

}  // namespace

void* allocate(std::size_t bytes) {
  if (!uses_huge_pages(bytes)) return ::operator new(bytes);
  const std::size_t length = allocated_bytes(bytes);
  const std::size_t page = page_bytes();
  // One spare huge page holds a 2 MiB-aligned start; what it leaves past
  // the end is at least one page, which becomes the guard.
  const std::size_t mapped = length + kHugePageBytes;
  void* raw = mmap(nullptr, mapped, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t guard = start + length;
  const std::uintptr_t end = base + mapped;
  if (start != base) munmap(raw, start - base);
  if (end != guard + page) munmap(reinterpret_cast<void*>(guard + page), end - guard - page);
  mprotect(reinterpret_cast<void*>(guard), page, PROT_NONE);
#ifdef MADV_HUGEPAGE
  // Advised before the first touch, so the first write faults in 2 MiB
  // pages. Advisory: on failure the pages are 4 KiB and nothing else changes.
  madvise(reinterpret_cast<void*>(start), length, MADV_HUGEPAGE);
#endif
  ASAN_POISON_MEMORY_REGION(reinterpret_cast<void*>(start + bytes), length - bytes);
  return reinterpret_cast<void*>(start);
}

void deallocate(void* pointer, std::size_t bytes) noexcept {
  if (pointer == nullptr) return;
  if (!uses_huge_pages(bytes)) {
    ::operator delete(pointer, bytes);
    return;
  }
  const std::size_t length = allocated_bytes(bytes);
  ASAN_UNPOISON_MEMORY_REGION(pointer, length);
  munmap(pointer, length + page_bytes());
}

std::size_t huge_page_bytes(const void* pointer, std::size_t bytes) {
  constexpr std::string_view kField = "AnonHugePages:";
  std::ifstream smaps("/proc/self/smaps");
  const auto first = reinterpret_cast<std::uintptr_t>(pointer);
  const std::uintptr_t last = first + bytes;
  std::size_t total = 0;
  std::size_t overlap = 0;  // of the current mapping with [first, last)
  std::string line;
  while (std::getline(smaps, line)) {
    if (line.empty()) continue;
    const char lead = line[0];
    if ((lead >= '0' && lead <= '9') || (lead >= 'a' && lead <= 'f')) {
      // A mapping's header: "start-end perms offset dev inode [path]".
      const std::size_t dash = line.find('-');
      const std::size_t space = line.find(' ', dash);
      if (dash == std::string::npos || space == std::string::npos) continue;
      const std::uintptr_t start = parse_hex(line.data(), line.data() + dash);
      const std::uintptr_t end = parse_hex(line.data() + dash + 1, line.data() + space);
      const std::uintptr_t low = std::max(start, first);
      const std::uintptr_t high = std::min(end, last);
      overlap = high > low ? high - low : 0;
    } else if (overlap != 0 && line.starts_with(kField)) {
      std::size_t kib = 0;
      const std::size_t digits = line.find_first_not_of(' ', kField.size());
      if (digits != std::string::npos) {
        std::from_chars(line.data() + digits, line.data() + line.size(), kib);
      }
      total += std::min(kib << 10, overlap);
      overlap = 0;
    }
  }
  return total;
}

}  // namespace are::mem
