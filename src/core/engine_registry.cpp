#include "core/engine_registry.hpp"

#include <stdexcept>

#include "simd/dispatch.hpp"

namespace are::core {

namespace {

/// The runtime-dispatch facts for this (binary, host) pair: which kernel
/// TUs the build linked, what this host's cpuid reports, and which of them
/// kAuto therefore executes — the note CI greps to prove a baseline
/// (-DARE_MARCH_NATIVE=OFF) binary still runs the wide kernels.
std::string simd_dispatch_note() {
  return "compiled: " + simd::describe_mask(simd::compiled_extensions()) +
         "; cpuid: " + simd::describe_mask(simd::detected_extensions()) +
         "; auto runs " + std::string(simd::name_of(simd::best_extension())) + " (" +
         simd::best_extension_reason() + ")";
}

}  // namespace

EngineRegistry::EngineRegistry() {
  // What distinguishes the engines is only the schedule (and so which of
  // them can borrow a pool); every knob — lane type, window, event chunk,
  // block size, phases, sinks, delta execution — is the shared kernel's.
  descriptors_ = {
      {.kind = EngineKind::kSequential,
       .name = "seq",
       .summary = "serial schedule, the bit-identity anchor",
       .availability_note = "scalar lanes under --simd-ext auto (the reference); an explicit "
                            "extension runs as requested"},
      {.kind = EngineKind::kParallel,
       .name = "parallel",
       .summary = "thread-pool trial parallelism, the paper's multi-core schedule",
       .supports_pool_reuse = true,
       .availability_note = simd_dispatch_note()},
      {.kind = EngineKind::kFused,
       .name = "fused",
       .summary = "cost-aware schedule: trial ranges balanced by event count",
       .supports_pool_reuse = true,
       .availability_note = simd_dispatch_note()},
  };
}

const EngineRegistry& EngineRegistry::global() {
  static const EngineRegistry registry;
  return registry;
}

const EngineDescriptor* EngineRegistry::find(EngineKind kind) const noexcept {
  for (const EngineDescriptor& descriptor : descriptors_) {
    if (descriptor.kind == kind) return &descriptor;
  }
  return nullptr;
}

const EngineDescriptor* EngineRegistry::find(std::string_view name) const noexcept {
  for (const EngineDescriptor& descriptor : descriptors_) {
    if (descriptor.name == name) return &descriptor;
  }
  return nullptr;
}

const EngineDescriptor& EngineRegistry::require(EngineKind kind) const {
  if (const EngineDescriptor* descriptor = find(kind)) return *descriptor;
  throw std::invalid_argument("no engine for kind " +
                              std::to_string(static_cast<int>(kind)) + " (known engines: " +
                              known_names() + ")");
}

const EngineDescriptor& EngineRegistry::require(std::string_view name) const {
  if (const EngineDescriptor* descriptor = find(name)) return *descriptor;
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (known engines: " + known_names() + ")");
}

std::string EngineRegistry::known_names() const {
  std::string names;
  for (const EngineDescriptor& descriptor : descriptors_) {
    if (!names.empty()) names += ", ";
    names += descriptor.name;
  }
  return names;
}

}  // namespace are::core
