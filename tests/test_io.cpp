// Tests for CSV and binary serialization: round trips, format validation,
// the on-disk bytes, and corruption detection in every payload vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "core/year_loss_table.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "metrics/ep_curve.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

elt::EventLossTable sample_elt() {
  return elt::EventLossTable({{3, 12.5}, {100, 7.25}, {7, 0.125}});
}

using Reader = std::function<void(std::istream&)>;

const Reader kReadElt = [](std::istream& in) { io::read_elt_binary(in); };
const Reader kReadYet = [](std::istream& in) { io::read_yet_binary(in); };

// Reading `bytes` must fail with data-corruption, and with `message` in the
// error when one is given.
void expect_corrupt(const std::string& bytes, const Reader& read, const std::string& what,
                    const std::string& message = "") {
  std::stringstream stream(bytes);
  try {
    read(stream);
    ADD_FAILURE() << what << ": accepted";
  } catch (const core::StatusError& error) {
    EXPECT_EQ(error.code(), core::StatusCode::kDataCorruption) << what << ": " << error.what();
    EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
        << what << ": " << error.what();
  }
}

// --- CSV ------------------------------------------------------------------------

TEST(Csv, YltHasHeaderAndAllTrials) {
  core::YearLossTable ylt({10, 20}, 3);
  ylt.at(0, 1) = 5.5;
  ylt.at(1, 2) = 7.0;
  std::stringstream stream;
  io::write_ylt_csv(stream, ylt);

  std::string line;
  std::getline(stream, line);
  EXPECT_EQ(line, "trial,layer_10,layer_20");
  int rows = 0;
  while (std::getline(stream, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(Csv, EpTableFormat) {
  const std::vector<metrics::EpPoint> points{{0.01, 100.0, 5e6}, {0.004, 250.0, 9e6}};
  std::stringstream stream;
  io::write_ep_csv(stream, points);
  std::string line;
  std::getline(stream, line);
  EXPECT_EQ(line, "return_period,probability,loss");
  std::getline(stream, line);
  EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);  // three fields
}

// --- Binary ---------------------------------------------------------------------

TEST(Binary, EltRoundTrip) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  const auto restored = io::read_elt_binary(stream);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_DOUBLE_EQ(restored.loss_for(3), 12.5);
  EXPECT_DOUBLE_EQ(restored.loss_for(100), 7.25);
}

TEST(Binary, YetRoundTrip) {
  yet::YetConfig config;
  config.num_trials = 50;
  config.events_per_trial = 20.0;
  config.count_model = yet::CountModel::kPoisson;
  const auto original = yet::generate_uniform_yet(config, 1'000);

  std::stringstream stream;
  io::write_yet_binary(stream, original);
  const auto restored = io::read_yet_binary(stream);

  ASSERT_EQ(restored.num_trials(), original.num_trials());
  ASSERT_EQ(restored.total_events(), original.total_events());
  for (std::size_t i = 0; i < original.total_events(); ++i) {
    EXPECT_EQ(restored.events()[i], original.events()[i]);
    EXPECT_EQ(restored.times()[i], original.times()[i]);
  }
}

TEST(Binary, DetectsCorruption) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  std::string bytes = stream.str();
  bytes[bytes.size() / 2] ^= 0x01;  // byte 34: bit 48 of the losses' count field
  expect_corrupt(bytes, kReadElt, "count bit flip", "implausible vector size");
}

TEST(Binary, DetectsTruncation) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  const std::string bytes = stream.str();
  expect_corrupt(bytes.substr(0, bytes.size() - 9), kReadElt, "truncated", "truncated");
}

TEST(Binary, RejectsWrongMagic) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  EXPECT_THROW(io::read_yet_binary(stream), std::runtime_error);  // YET reader on ELT bytes
}

TEST(Binary, Fnv1aKnownValues) {
  // FNV-1a 64 of "a" and "" (published constants).
  EXPECT_EQ(io::fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(io::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(Binary, EmptyEltRoundTrip) {
  std::stringstream stream;
  io::write_elt_binary(stream, elt::EventLossTable{});
  EXPECT_TRUE(io::read_elt_binary(stream).empty());
}

// --- On-disk bytes -----------------------------------------------------------------

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

// The exact bytes every existing .elt/.yet file uses: magic, version, each
// vector as a u64 count and its raw elements, then the XOR of the vectors'
// FNV-1a values. A writer change that alters any byte fails here.
TEST(BinaryFormat, EltBytesArePinned) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  EXPECT_EQ(hex(stream.str()),
            "31544c45010000000300000000000000030000000700000064000000030000000000000000000000"
            "00002940000000000000c03f0000000000001d40297743d272732501");
}

TEST(BinaryFormat, YetBytesArePinned) {
  std::stringstream stream;
  io::write_yet_binary(stream, yet::YearEventTable({5, 1, 9, 2}, {0.125f, 0.5f, 0.25f, 0.75f},
                                                   {0, 2, 2, 4}));
  EXPECT_EQ(hex(stream.str()),
            "31544559010000000400000000000000050000000100000009000000020000000400000000000000"
            "0000003e0000003f0000803e0000403f040000000000000000000000000000000200000000000000"
            "020000000000000004000000000000001ee78492af239361");
}

// --- Corruption in every vector ----------------------------------------------------

// Where one payload vector sits in a record's bytes.
struct VectorBytes {
  std::size_t count_at;    // its u64 element count
  std::size_t payload_at;  // its first element
  std::size_t payload_bytes;
};

// Walks a record's layout from its own count fields.
std::vector<VectorBytes> layout(const std::string& bytes,
                                const std::vector<std::size_t>& element_sizes) {
  std::vector<VectorBytes> vectors;
  std::size_t at = 8;  // magic + version
  for (const std::size_t element_size : element_sizes) {
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + at, sizeof(count));
    vectors.push_back({at, at + 8, static_cast<std::size_t>(count) * element_size});
    at += 8 + vectors.back().payload_bytes;
  }
  EXPECT_EQ(at + 8, bytes.size());  // the footer is all that follows
  return vectors;
}

std::string flip_bit(std::string bytes, std::size_t at) {
  bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
  return bytes;
}

// Flips a bit in a high and a low byte of each vector's count field, at the
// start, middle and end of each payload and in the footer, and truncates
// inside each count field, each payload and the footer. The vectors are large enough to span several read slices, so the
// reader fails while checksum threads are still live.
void expect_every_corruption_caught(const std::string& bytes,
                                    const std::vector<std::size_t>& element_sizes,
                                    const Reader& read) {
  const std::vector<VectorBytes> vectors = layout(bytes, element_sizes);
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    const VectorBytes& vec = vectors[v];
    ASSERT_GT(vec.payload_bytes, 0u);
    const std::string name = "vector " + std::to_string(v);
    const std::size_t last = vec.payload_bytes - 1;
    for (const std::size_t offset : {std::size_t{0}, vec.payload_bytes / 2, last}) {
      expect_corrupt(flip_bit(bytes, vec.payload_at + offset), read,
                     name + " bit flip at byte " + std::to_string(offset));
    }
    // A high count bit is refused before anything is allocated. A low one
    // misplaces every later field: a later count is implausible, the read
    // runs out, or the checksum differs.
    expect_corrupt(flip_bit(bytes, vec.count_at + 6), read, name + " count bit flip, high byte",
                   "implausible vector size");
    expect_corrupt(flip_bit(bytes, vec.count_at), read, name + " count bit flip, low byte");
    expect_corrupt(bytes.substr(0, vec.count_at + 3), read, name + " truncated in its count");
    expect_corrupt(bytes.substr(0, vec.payload_at + vec.payload_bytes / 2), read,
                   name + " truncated mid-payload");
    expect_corrupt(bytes.substr(0, vec.payload_at + vec.payload_bytes - 1), read,
                   name + " truncated one byte short");
  }
  expect_corrupt(flip_bit(bytes, bytes.size() - 1), read, "footer bit flip");
  expect_corrupt(bytes.substr(0, bytes.size() - 4), read, "truncated in the footer");
}

TEST(BinaryCorruption, EveryYetVectorAndFooter) {
  yet::YetConfig config;
  config.num_trials = 2'000;
  config.events_per_trial = 200.0;
  config.count_model = yet::CountModel::kPoisson;
  std::stringstream stream;
  io::write_yet_binary(stream, yet::generate_uniform_yet(config, 10'000));
  const std::string bytes = stream.str();
  {
    std::stringstream intact(bytes);
    EXPECT_EQ(io::read_yet_binary(intact).num_trials(), 2'000u);
  }
  expect_every_corruption_caught(
      bytes, {sizeof(yet::EventId), sizeof(float), sizeof(std::uint64_t)}, kReadYet);
}

TEST(BinaryCorruption, EveryEltVectorAndFooter) {
  std::vector<elt::EventLoss> records;
  for (elt::EventId event = 0; event < 300'000; ++event) {
    records.push_back({event * 3, 0.5 * event + 1.0});
  }
  std::stringstream stream;
  io::write_elt_binary(stream, elt::EventLossTable(std::move(records)));
  const std::string bytes = stream.str();
  {
    std::stringstream intact(bytes);
    EXPECT_EQ(io::read_elt_binary(intact).size(), 300'000u);
  }
  expect_every_corruption_caught(bytes, {sizeof(elt::EventId), sizeof(double)}, kReadElt);
}

// A YET record built by hand, with a valid footer over payloads that break a
// YearEventTable invariant (offsets end past the events).
std::string yet_record_breaking_invariants(bool corrupt_footer) {
  const std::vector<yet::EventId> events{1, 2};
  const std::vector<float> times{0.25f, 0.5f};
  const std::vector<std::uint64_t> offsets{0, 3};
  std::string bytes;
  const auto append = [&](const void* data, std::size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  const std::uint32_t header[] = {0x59455431, 1};
  append(header, sizeof(header));
  std::uint64_t footer = 0;
  const auto append_vector = [&](const auto& values) {
    const std::uint64_t count = values.size();
    append(&count, sizeof(count));
    append(values.data(), values.size() * sizeof(values[0]));
    footer ^= io::fnv1a(values.data(), values.size() * sizeof(values[0]));
  };
  append_vector(events);
  append_vector(times);
  append_vector(offsets);
  if (corrupt_footer) footer ^= 1;
  append(&footer, sizeof(footer));
  return bytes;
}

TEST(BinaryCorruption, ChecksumIsCheckedBeforeYetInvariants) {
  {
    std::stringstream valid_checksum(yet_record_breaking_invariants(false));
    EXPECT_THROW(io::read_yet_binary(valid_checksum), std::invalid_argument);
  }
  expect_corrupt(yet_record_breaking_invariants(true), kReadYet,
                 "bad checksum over an invariant-breaking YET", "checksum mismatch");
}

}  // namespace
