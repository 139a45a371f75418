#include "core/simd_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "elt/direct_access_table.hpp"
#include "simd/dispatch.hpp"

namespace are::core {

namespace {

/// core::SimdExtension (with kAuto) ↔ simd::Extension (dispatchable only).
simd::Extension to_dispatch(SimdExtension extension) noexcept {
  switch (extension) {
    case SimdExtension::kSse2: return simd::Extension::kSse2;
    case SimdExtension::kAvx2: return simd::Extension::kAvx2;
    case SimdExtension::kAvx512: return simd::Extension::kAvx512;
    case SimdExtension::kNeon: return simd::Extension::kNeon;
    default: return simd::Extension::kScalar;
  }
}

SimdExtension from_dispatch(simd::Extension extension) noexcept {
  switch (extension) {
    case simd::Extension::kSse2: return SimdExtension::kSse2;
    case simd::Extension::kAvx2: return SimdExtension::kAvx2;
    case simd::Extension::kAvx512: return SimdExtension::kAvx512;
    case simd::Extension::kNeon: return SimdExtension::kNeon;
    case simd::Extension::kScalar: break;
  }
  return SimdExtension::kScalar;
}

/// Direct-table bytes a layer's lookups touch. Above this, gathers lose to
/// the cache hierarchy (lookups miss whatever the lane width, and wide
/// hardware gathers issue more uops per miss than scalar loads), so kAuto
/// narrows to SSE2 — which keeps the vectorized financial/layer phases but
/// gathers with plain loads. Measured crossover on Skylake-class parts is
/// between ~5 MB (still wins) and ~24 MB (loses).
constexpr std::size_t kWideLaneFootprintBytes = 6u << 20;

std::size_t max_layer_direct_footprint(const Portfolio& portfolio) noexcept {
  std::size_t max_bytes = 0;
  for (const Layer& layer : portfolio.layers) {
    if (!layer.all_direct_access()) continue;
    std::size_t bytes = 0;
    for (const LayerElt& layer_elt : layer.elts) {
      bytes += layer_elt.lookup->as_direct_access()->universe() * sizeof(double);
    }
    max_bytes = std::max(max_bytes, bytes);
  }
  return max_bytes;
}

}  // namespace

std::string_view to_string(SimdExtension extension) noexcept {
  switch (extension) {
    case SimdExtension::kAuto: return "auto";
    case SimdExtension::kScalar: return "scalar";
    case SimdExtension::kSse2: return "sse2";
    case SimdExtension::kAvx2: return "avx2";
    case SimdExtension::kAvx512: return "avx512";
    case SimdExtension::kNeon: return "neon";
  }
  return "unknown";
}

std::optional<SimdExtension> simd_extension_from_string(std::string_view name) noexcept {
  for (const SimdExtension extension :
       {SimdExtension::kAuto, SimdExtension::kScalar, SimdExtension::kSse2, SimdExtension::kAvx2,
        SimdExtension::kAvx512, SimdExtension::kNeon}) {
    if (name == to_string(extension)) return extension;
  }
  return std::nullopt;
}

bool simd_extension_available(SimdExtension extension) noexcept {
  switch (extension) {
    case SimdExtension::kAuto:
    case SimdExtension::kScalar: return true;
    default:
      return simd::mask_has(simd::runnable_extensions(), to_dispatch(extension));
  }
}

SimdExtension best_simd_extension() noexcept {
  return from_dispatch(simd::best_extension());
}

std::size_t simd_lane_width(SimdExtension extension) {
  if (extension == SimdExtension::kAuto) return simd::lanes_of(simd::best_extension());
  if (!simd_extension_available(extension)) {
    throw std::invalid_argument("simd extension '" + std::string(to_string(extension)) +
                                "' is not compiled into this binary or not supported by this "
                                "host's cpu");
  }
  return simd::lanes_of(to_dispatch(extension));
}

SimdExtension resolve_simd_extension(const Portfolio& portfolio, const SimdOptions& options) {
  return resolve_simd_extension_ex(portfolio, options).extension;
}

SimdResolution resolve_simd_extension_ex(const Portfolio& portfolio,
                                         const SimdOptions& options) {
  SimdResolution resolved;
  resolved.extension = options.extension;
  if (resolved.extension == SimdExtension::kAuto) {
    resolved.extension = best_simd_extension();
    resolved.note = simd::best_extension_reason();
    // Memory-bound portfolios: narrow to SSE2 when wide gathers stop
    // paying (see kWideLaneFootprintBytes). Never changes results — every
    // extension is bit-identical — only the lane type. An explicit
    // ARE_SIMD_EXT override wins over the heuristic: an operator pinning
    // the extension is usually measuring exactly this trade-off.
    if (!simd::env_override() &&
        (resolved.extension == SimdExtension::kAvx2 ||
         resolved.extension == SimdExtension::kAvx512) &&
        max_layer_direct_footprint(portfolio) > kWideLaneFootprintBytes &&
        simd_extension_available(SimdExtension::kSse2)) {
      resolved.note =
          "narrowed " + std::string(to_string(resolved.extension)) +
          " -> sse2: direct-table footprint " +
          std::to_string(max_layer_direct_footprint(portfolio) >> 20) + " MB > " +
          std::to_string(kWideLaneFootprintBytes >> 20) +
          " MB (wide gathers stop paying once every lookup misses)";
      resolved.extension = SimdExtension::kSse2;
    }
  } else {
    resolved.note = "requested explicitly";
  }
  if (!simd_extension_available(resolved.extension)) {
    throw std::invalid_argument("simd extension '" +
                                std::string(to_string(resolved.extension)) +
                                "' is not compiled into this binary or not supported by this "
                                "host's cpu");
  }
  return resolved;
}

}  // namespace are::core
