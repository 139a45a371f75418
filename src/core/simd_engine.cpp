#include "core/simd_engine.hpp"

#include <stdexcept>
#include <string>

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

SimdResolution resolve_simd_extension_ex(const Portfolio& /*portfolio*/,
                                         const SimdOptions& options) {
  SimdResolution resolved;
  resolved.extension = options.extension;
  if (resolved.extension == SimdExtension::kAuto) {
    resolved.extension = best_simd_extension();
    resolved.note = simd::best_extension_reason();
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
