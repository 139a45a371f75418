// AVX-512 kernel translation unit. Compiled with -mavx512f and WITHOUT
// -march=native (see the per-extension stanza in CMakeLists.txt); the
// runtime dispatcher only routes here on hosts whose cpuid (and XCR0 ZMM
// state) reports AVX-512F.

#if !defined(__AVX512F__)
#error "kernel_ext_avx512.cpp must be compiled with -mavx512f (check CMakeLists.txt flags)"
#endif

#include "core/kernel_ext.hpp"
#include "core/trial_kernel_body.hpp"

namespace are::core::detail {

std::unique_ptr<TrialBlockKernel::Impl> make_kernel_impl_avx512(
    const Portfolio& portfolio, const yet::YearEventTable& yet_table,
    const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink) {
  return std::make_unique<KernelImpl<simd::avx512_ext>>(portfolio, yet_table, config, ylt, sink);
}

}  // namespace are::core::detail
