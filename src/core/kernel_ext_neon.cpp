// NEON kernel translation unit (AArch64). NEON is baseline on AArch64, so
// no extra -m flags are needed — this TU exists so the dispatch table has a
// uniform per-extension factory shape on ARM too.

#if !defined(__ARM_NEON) || !defined(__aarch64__)
#error "kernel_ext_neon.cpp must target AArch64 NEON (check CMakeLists.txt arch gating)"
#endif

#include "core/kernel_ext.hpp"
#include "core/trial_kernel_body.hpp"

namespace are::core::detail {

std::unique_ptr<TrialBlockKernel::Impl> make_kernel_impl_neon(
    const Portfolio& portfolio, const yet::YearEventTable& yet_table,
    const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink) {
  return std::make_unique<KernelImpl<simd::neon_ext>>(portfolio, yet_table, config, ylt, sink);
}

}  // namespace are::core::detail
