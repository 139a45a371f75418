// Tests for the huge-page allocation helper (src/mem/huge_pages.hpp) and the
// direct access tables it backs: 2 MiB alignment on the huge-page path,
// operator new below it, vector contents, copies and moves of a table, the
// elt.direct_access.{bytes,huge_page_bytes} gauges, and AddressSanitizer
// reports for reads past a table on either path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "catalog/types.hpp"
#include "elt/direct_access_table.hpp"
#include "elt/synthetic.hpp"
#include "mem/huge_pages.hpp"
#include "obs/telemetry.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ARE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARE_TEST_ASAN 1
#endif
#endif

// Counts the operator new calls of one watched size, so a test can tell
// which path mem::allocate took.
namespace {
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::size_t> g_watched_news{0};
}  // namespace

void* operator new(std::size_t size) {
  if (size == g_watched_size.load(std::memory_order_relaxed)) {
    g_watched_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* pointer = std::malloc(size != 0 ? size : 1)) return pointer;
  throw std::bad_alloc();
}
void operator delete(void* pointer) noexcept { std::free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept { std::free(pointer); }

namespace {

using namespace are;

/// 2.4 MB of doubles: the smallest universe the engine tests put on the
/// huge-page path.
constexpr std::size_t kHugeUniverse = 300'000;
/// 160 KB: below the huge-page threshold.
constexpr std::size_t kSmallUniverse = 20'000;

std::size_t operator_news_of(std::size_t bytes, void (*body)()) {
  g_watched_news.store(0);
  g_watched_size.store(bytes);
  body();
  g_watched_size.store(0);
  return g_watched_news.load();
}

elt::DirectAccessTable make_table(std::size_t universe, std::uint64_t seed = 7) {
  elt::SyntheticEltConfig config;
  config.catalog_size = universe;
  config.entries = 2'000;
  config.seed = seed;
  return elt::DirectAccessTable(elt::make_synthetic_elt(config), universe);
}

void expect_same_lookups(const elt::DirectAccessTable& a, const elt::DirectAccessTable& b) {
  ASSERT_EQ(a.universe(), b.universe());
  EXPECT_EQ(a.entry_count(), b.entry_count());
  for (elt::EventId event = 0; event < a.universe(); ++event) {
    ASSERT_EQ(a.lookup(event), b.lookup(event)) << "event " << event;
  }
  EXPECT_EQ(b.lookup(static_cast<elt::EventId>(b.universe())), 0.0);
  EXPECT_EQ(b.lookup(catalog::kInvalidEvent), 0.0);
}

/// The transparent huge page mode the kernel selected ("always",
/// "madvise", "never"), or empty when the file is absent.
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  return line.substr(open + 1, close - open - 1);
}

struct Gauges {
  std::int64_t bytes;
  std::int64_t huge_page_bytes;
};

Gauges read_gauges() {
  const obs::Snapshot snapshot = obs::TelemetryRegistry::global().snapshot();
  return {snapshot.gauge_value("elt.direct_access.bytes"),
          snapshot.gauge_value("elt.direct_access.huge_page_bytes")};
}

/// Telemetry on for the test, off again after it.
class TableGauges : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
  void TearDown() override { obs::set_enabled(false); }
};

TEST(HugePages, LargeRequestsAreTwoMiBAligned) {
  for (const std::size_t bytes : {mem::kHugePageBytes, mem::kHugePageBytes + 8,
                                  3 * mem::kHugePageBytes + 4096}) {
    SCOPED_TRACE(bytes);
    ASSERT_TRUE(mem::uses_huge_pages(bytes));
    EXPECT_EQ(mem::allocated_bytes(bytes) % mem::kHugePageBytes, 0u);
    EXPECT_GE(mem::allocated_bytes(bytes), bytes);
    EXPECT_LT(mem::allocated_bytes(bytes) - bytes, mem::kHugePageBytes);
    void* pointer = mem::allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pointer) % mem::kHugePageBytes, 0u);
    // Fresh anonymous memory: zero, and writable end to end.
    auto* first = static_cast<unsigned char*>(pointer);
    EXPECT_EQ(first[0], 0);
    EXPECT_EQ(first[bytes - 1], 0);
    first[0] = 1;
    first[bytes - 1] = 1;
    mem::deallocate(pointer, bytes);
  }
}

TEST(HugePages, LargeRequestsBypassOperatorNew) {
  EXPECT_EQ(operator_news_of(mem::kHugePageBytes, [] {
              mem::deallocate(mem::allocate(mem::kHugePageBytes), mem::kHugePageBytes);
            }),
            0u);
}

TEST(HugePages, SmallRequestsTakeOperatorNew) {
  constexpr std::size_t kBytes = mem::kHugePageBytes - 8;
  EXPECT_FALSE(mem::uses_huge_pages(kBytes));
  EXPECT_EQ(mem::allocated_bytes(kBytes), kBytes);
  EXPECT_EQ(operator_news_of(kBytes, [] { mem::deallocate(mem::allocate(kBytes), kBytes); }), 1u);
}

TEST(HugePages, VectorContentsEqualStdAllocator) {
  for (const std::size_t count : {kSmallUniverse, kHugeUniverse}) {
    SCOPED_TRACE(count);
    std::vector<double, mem::HugePageAllocator<double>> huge;
    std::vector<double> plain;
    huge.assign(count, 0.25);
    plain.assign(count, 0.25);
    ASSERT_TRUE(std::equal(huge.begin(), huge.end(), plain.begin(), plain.end()));
    for (std::size_t i = 0; i < count; i += 97) {
      huge[i] = static_cast<double>(i) * 0.5;
      plain[i] = static_cast<double>(i) * 0.5;
    }
    huge.assign(count / 2, -1.0);  // shrink in place
    plain.assign(count / 2, -1.0);
    ASSERT_TRUE(std::equal(huge.begin(), huge.end(), plain.begin(), plain.end()));
    const std::vector<double, mem::HugePageAllocator<double>> copy = huge;
    ASSERT_TRUE(std::equal(copy.begin(), copy.end(), plain.begin(), plain.end()));
  }
}

TEST(HugePages, CopiedAndMovedTablesLookUpTheSame) {
  for (const std::size_t universe : {kSmallUniverse, kHugeUniverse}) {
    SCOPED_TRACE(universe);
    const elt::DirectAccessTable original = make_table(universe);
    elt::DirectAccessTable copy = original;
    EXPECT_NE(copy.data(), original.data());
    expect_same_lookups(original, copy);

    const double* storage = copy.data();
    elt::DirectAccessTable moved = std::move(copy);
    EXPECT_EQ(moved.data(), storage);  // a move keeps the allocation
    expect_same_lookups(original, moved);

    elt::DirectAccessTable assigned = make_table(kSmallUniverse, 99);
    assigned = original;
    expect_same_lookups(original, assigned);
    elt::DirectAccessTable move_assigned = make_table(kSmallUniverse, 99);
    move_assigned = std::move(moved);
    expect_same_lookups(original, move_assigned);
  }
}

TEST_F(TableGauges, HugePageBytesNeverExceedBytes) {
  const Gauges before = read_gauges();
  {
    const elt::DirectAccessTable small = make_table(kSmallUniverse);
    const elt::DirectAccessTable large = make_table(kHugeUniverse);
    const elt::DirectAccessTable copy = large;
    const Gauges built = read_gauges();
    EXPECT_EQ(built.bytes - before.bytes,
              static_cast<std::int64_t>(kSmallUniverse * sizeof(double) +
                                        2 * mem::allocated_bytes(kHugeUniverse * sizeof(double))));
    EXPECT_GE(built.huge_page_bytes - before.huge_page_bytes, 0);
    EXPECT_LE(built.huge_page_bytes - before.huge_page_bytes, built.bytes - before.bytes);
    EXPECT_LE(built.huge_page_bytes, built.bytes);
  }
  const Gauges destroyed = read_gauges();
  EXPECT_EQ(destroyed.bytes, before.bytes);
  EXPECT_EQ(destroyed.huge_page_bytes, before.huge_page_bytes);
}

TEST_F(TableGauges, TwoMillionEventTableSitsOnHugePages) {
  const std::string mode = thp_mode();
  if (mode != "always" && mode != "madvise") {
    GTEST_SKIP() << "transparent huge pages are '" << mode << "' here";
  }
  const Gauges before = read_gauges();
  const elt::DirectAccessTable table = make_table(2'000'000);
  const Gauges built = read_gauges();
  EXPECT_GT(built.huge_page_bytes - before.huge_page_bytes, 0);
  EXPECT_LE(built.huge_page_bytes - before.huge_page_bytes, built.bytes - before.bytes);
}

TEST(HugePagesDeathTest, ReadPastATableIsReported) {
#ifndef ARE_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build (-DARE_SANITIZE=ON)";
#else
  const elt::DirectAccessTable large = make_table(kHugeUniverse);
  EXPECT_DEATH(
      {
        const volatile double* past = large.data() + large.universe();
        static_cast<void>(*past);
      },
      "use-after-poison");
  const elt::DirectAccessTable small = make_table(kSmallUniverse);
  EXPECT_DEATH(
      {
        const volatile double* past = small.data() + small.universe();
        static_cast<void>(*past);
      },
      "heap-buffer-overflow");
#endif
}

}  // namespace
