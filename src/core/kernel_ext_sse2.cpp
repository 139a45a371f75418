// SSE2 kernel translation unit. Compiled with -msse2 and WITHOUT
// -march=native (see the per-extension stanza in CMakeLists.txt): the only
// instructions this TU may emit are ones every x86-64 host executes, so the
// runtime dispatcher can always fall back here.

#if !defined(__SSE2__) && !defined(__x86_64__) && !defined(_M_X64)
#error "kernel_ext_sse2.cpp must target x86-64 / SSE2 (check CMakeLists.txt flags)"
#endif

#include "core/kernel_ext.hpp"
#include "core/trial_kernel_body.hpp"

namespace are::core::detail {

std::unique_ptr<TrialBlockKernel::Impl> make_kernel_impl_sse2(
    const Portfolio& portfolio, const yet::YearEventTable& yet_table,
    const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink) {
  return std::make_unique<KernelImpl<simd::sse2_ext>>(portfolio, yet_table, config, ylt, sink);
}

}  // namespace are::core::detail
