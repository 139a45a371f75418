#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/year_loss_table.hpp"

namespace are::core {

/// Where an engine delivers finished trial losses. The materialized path
/// (core::run returning a YearLossTable) stays the default; a sink is how an
/// engine emits into storage it does not own — most importantly the sharded
/// out-of-core YLT in src/shard/, where no monolithic trials x layers buffer
/// may ever exist.
///
/// Contract: the engine calls emit() exactly once per (layer, trial) cell,
/// in blocks of consecutive trials that never cross a block_trials()
/// boundary (when that is non-zero). Blocks for disjoint trial ranges may be
/// emitted concurrently from different workers; implementations must make
/// that safe. Values are final — a sink never sees a cell twice.
class YltSink {
 public:
  virtual ~YltSink() = default;

  /// Delivers `losses` for trials [trial_begin, trial_begin + losses.size())
  /// of layer `layer_index` (the portfolio's layer order).
  virtual void emit(std::size_t layer_index, std::uint64_t trial_begin,
                    std::span<const double> losses) = 0;

  /// When non-zero, emitted blocks must not cross multiples of this trial
  /// count — the sharded sink returns its shard size here so the kernel
  /// clamps block boundaries to shard boundaries and every block lands in
  /// exactly one shard.
  virtual std::uint64_t block_trials() const noexcept { return 0; }
};

/// Sink over an ordinary in-memory YearLossTable: emit() copies straight
/// into the layer row. Lets sink-capable engines serve the materialized
/// path with one code path, and anchors the sharded-vs-materialized
/// bit-identity tests.
class MaterializedYltSink final : public YltSink {
 public:
  explicit MaterializedYltSink(YearLossTable& ylt) : ylt_(ylt) {}

  void emit(std::size_t layer_index, std::uint64_t trial_begin,
            std::span<const double> losses) override {
    double* row = ylt_.layer_losses(layer_index).data();
    std::copy(losses.begin(), losses.end(), row + trial_begin);
  }

 private:
  YearLossTable& ylt_;
};

}  // namespace are::core
