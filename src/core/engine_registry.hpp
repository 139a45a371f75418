#pragma once

// The engine table: maps EngineKind and its canonical string name (for
// CLI, protocol and config parsing) to a descriptor of one of the trial
// kernel's three schedules. The table is fixed; every engine honours every
// AnalysisConfig knob, so the only capability that differs between them is
// borrowing a thread pool.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.hpp"

namespace are::core {

/// Self-description of one schedule, as list-engines prints it.
struct EngineDescriptor {
  EngineKind kind = EngineKind::kSequential;
  /// Canonical name for string lookup ("seq", "parallel", ...).
  std::string name;
  /// One-line human description for list-engines.
  std::string summary;
  /// Honours AnalysisConfig::pool instead of rejecting it (the service
  /// reads this to hand its session pool to the engine).
  bool supports_pool_reuse = false;
  /// Build- and host-dependent detail: compiled-in and runnable SIMD
  /// extensions, seq's scalar reference. Surfaced by list-engines.
  std::string availability_note;
};

/// The three builtin engines, keyed by kind and by name.
class EngineRegistry {
 public:
  /// The process-wide table used by core::run().
  static const EngineRegistry& global();

  /// nullptr when absent.
  const EngineDescriptor* find(EngineKind kind) const noexcept;
  const EngineDescriptor* find(std::string_view name) const noexcept;

  /// Throwing lookups; the name overload's message lists the known names so
  /// CLI typos are self-explanatory.
  const EngineDescriptor& require(EngineKind kind) const;
  const EngineDescriptor& require(std::string_view name) const;

  /// All descriptors: seq, parallel, fused.
  std::span<const EngineDescriptor> descriptors() const noexcept { return descriptors_; }

  /// Comma-separated canonical names, for error messages and usage text.
  std::string known_names() const;

 private:
  EngineRegistry();

  std::vector<EngineDescriptor> descriptors_;
};

}  // namespace are::core
