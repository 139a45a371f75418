#pragma once

#include <array>
#include <cstdint>

namespace are::rng {

/// Philox4x32-10 counter-based generator (Salmon et al., SC'11).
///
/// Counter-based RNGs are the natural fit for the trial-parallel Monte
/// Carlo in the aggregate risk engine: the random value consumed by
/// (trial, draw) is a pure function of (key, counter), so any trial can be
/// generated on any thread, in any order, with bit-identical results. This
/// is what makes the pre-simulated Year Event Table reproducible across the
/// serial and threaded engines.
class Philox4x32 {
 public:
  using result_type = std::uint32_t;
  using counter_type = std::array<std::uint32_t, 4>;
  using key_type = std::array<std::uint32_t, 2>;

  static constexpr int kRounds = 10;

  constexpr Philox4x32() noexcept : Philox4x32(0, 0) {}

  /// `key` selects an independent stream; `counter_hi` partitions a stream
  /// into substreams (e.g. one per trial).
  constexpr explicit Philox4x32(std::uint64_t key, std::uint64_t counter_hi = 0) noexcept
      : key_{static_cast<std::uint32_t>(key), static_cast<std::uint32_t>(key >> 32)},
        counter_{0, 0, static_cast<std::uint32_t>(counter_hi),
                 static_cast<std::uint32_t>(counter_hi >> 32)} {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint32_t{0}; }

  /// Core bijection: encrypt `ctr` under `key`.
  static constexpr counter_type bijection(counter_type ctr, key_type key) noexcept {
    for (int round = 0; round < kRounds; ++round) {
      ctr = single_round(ctr, key);
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    return ctr;
  }

  constexpr result_type operator()() noexcept {
    if (block_pos_ == 0) {
      block_ = bijection(counter_, key_);
      increment_counter();
    }
    const result_type out = block_[block_pos_];
    block_pos_ = (block_pos_ + 1) & 3;
    return out;
  }

  /// Jump directly to a (substream, offset) position. Offset is measured in
  /// 128-bit blocks.
  constexpr void seek(std::uint64_t block_index) noexcept {
    counter_[0] = static_cast<std::uint32_t>(block_index);
    counter_[1] = static_cast<std::uint32_t>(block_index >> 32);
    block_pos_ = 0;
  }

  constexpr key_type key() const noexcept { return key_; }
  constexpr counter_type counter() const noexcept { return counter_; }

 private:
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3)-1
  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;

  static constexpr std::uint32_t mulhi(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::uint32_t>((static_cast<std::uint64_t>(a) * b) >> 32);
  }
  static constexpr std::uint32_t mullo(std::uint32_t a, std::uint32_t b) noexcept {
    return a * b;
  }

  static constexpr counter_type single_round(const counter_type& ctr, const key_type& key) noexcept {
    const std::uint32_t hi0 = mulhi(kMul0, ctr[0]);
    const std::uint32_t lo0 = mullo(kMul0, ctr[0]);
    const std::uint32_t hi1 = mulhi(kMul1, ctr[2]);
    const std::uint32_t lo1 = mullo(kMul1, ctr[2]);
    return {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
  }

  constexpr void increment_counter() noexcept {
    if (++counter_[0] == 0) {
      ++counter_[1];  // carries never reach the substream words in practice
    }
  }

  key_type key_;
  counter_type counter_;
  counter_type block_{};
  unsigned block_pos_ = 0;
};

}  // namespace are::rng
