#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/engine.hpp"

namespace are::core {

/// Runtime-selectable instruction-set extension for the trial kernel's
/// vectorized phases (AnalysisConfig::simd_extension). kAuto is a
/// true load-time decision since the per-extension kernel TUs landed (see
/// simd/dispatch.hpp): the widest extension that is BOTH compiled into this
/// binary AND reported by this host's cpuid (ARE_SIMD_EXT overrides), for
/// every portfolio — the widest lanes won at every direct-table footprint
/// measured, cache-resident or not. Narrower extensions remain selectable
/// so equivalence tests can assert that results are lane-width independent.
enum class SimdExtension {
  kAuto = 0,
  kScalar,
  kSse2,
  kAvx2,
  kAvx512,
  kNeon,
};

std::string_view to_string(SimdExtension extension) noexcept;

/// Inverse of to_string, for CLI/config parsing ("auto", "scalar", "sse2",
/// "avx2", "avx512", "neon"); std::nullopt for unknown names.
std::optional<SimdExtension> simd_extension_from_string(std::string_view name) noexcept;

/// True when the extension is RUNNABLE here: its kernel translation unit
/// is linked into this binary and this host's cpu executes it (kScalar and
/// kAuto are always available). A runtime property of (binary, host) — the
/// same binary answers differently on different machines.
bool simd_extension_available(SimdExtension extension) noexcept;

/// The extension kAuto executes: the runtime dispatch decision (detected ∩
/// compiled, ARE_SIMD_EXT override honored).
SimdExtension best_simd_extension() noexcept;

/// Lane width (doubles per vector register) of the given extension — the
/// kernel's vectorized term phases process this many events at once.
/// Throws for extensions not runnable here. For kAuto this is
/// best_simd_extension()'s width.
std::size_t simd_lane_width(SimdExtension extension);

struct SimdOptions {
  /// Worker threads of the run being resolved (0 = hardware concurrency).
  std::size_t num_threads = 1;
  /// The requested lane type; resolution throws std::invalid_argument if it
  /// is not runnable here.
  SimdExtension extension = SimdExtension::kAuto;
};

/// The extension a parallel or fused run executes for this
/// portfolio and options, plus WHY — the one-sentence rationale the
/// instrumentation note and --verbose surface: explicit request, the
/// ARE_SIMD_EXT override, or the cpuid / compiled-in cap. Resolves kAuto to
/// best_simd_extension() and throws std::invalid_argument for extensions
/// not runnable here. The answer does not depend on the portfolio.
struct SimdResolution {
  SimdExtension extension = SimdExtension::kScalar;
  std::string note;
};
SimdResolution resolve_simd_extension_ex(const Portfolio& portfolio, const SimdOptions& options);

}  // namespace are::core
