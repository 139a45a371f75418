#pragma once

// Portable vector abstraction for the batch-execution subsystem.
//
// One struct template `VecD<Extension>` per instruction-set extension, in
// the template-based vector-extension style of database SIMD libraries:
// the engine kernels are written once against the VecD interface and
// instantiated per extension, so scalar / SSE2 / AVX2 / AVX-512 / NEON all
// share one code path. Scoped deliberately to what the aggregate-analysis
// engine needs — double lanes with load / store / broadcast, add / sub /
// mul, min / max, compare + blend, a bounds-guarded gather (the ELT
// direct-access lookup is a gather of doubles by u32 event id), and masked
// gathers of doubles and of float timestamps (the aggregate recurrence runs
// one trial per lane, each lane reading its own trial's occurrences).
//
// Bit-identity contract: every operation here rounds exactly like the
// corresponding scalar expression of the kernel's scalar lanes, so a run at
// any lane width is bit-identical to scalar seq. Two details carry
// that contract:
//   * min/max follow the x86 MINPD/MAXPD convention (return the SECOND
//     operand on equality), which matches the `a < b ? a : b` /
//     `a > b ? a : b` selects of financial::excess_of_loss. Inputs are
//     finite-or-+inf and never NaN, so the NaN corner never arises.
//   * less / less_equal are ordered compares, false on NaN like the scalar
//     `<` / `<=`.
//   * No FMA is used, and the build disables FP contraction
//     (-ffp-contract=off in CMakeLists.txt) so the compiler cannot fuse
//     the scalar engine's mul+sub either.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define ARE_SIMD_HAVE_SSE2 1
#else
#define ARE_SIMD_HAVE_SSE2 0
#endif

#if defined(__AVX2__)
#define ARE_SIMD_HAVE_AVX2 1
#else
#define ARE_SIMD_HAVE_AVX2 0
#endif

#if defined(__AVX512F__)
#define ARE_SIMD_HAVE_AVX512 1
#else
#define ARE_SIMD_HAVE_AVX512 0
#endif

#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define ARE_SIMD_HAVE_NEON 1
#else
#define ARE_SIMD_HAVE_NEON 0
#endif

namespace are::simd {

/// Instruction-set extension tags (compile-time dispatch keys).
struct scalar_ext {};
struct sse2_ext {};
struct avx2_ext {};
struct avx512_ext {};
struct neon_ext {};

template <typename Extension>
struct VecD;

// ---------------------------------------------------------------------------
// Scalar fallback: one lane, plain double arithmetic. Always available and
// the semantic reference for every other specialization.
// ---------------------------------------------------------------------------
template <>
struct VecD<scalar_ext> {
  static constexpr std::size_t kLanes = 1;
  static constexpr std::string_view kName = "scalar";
  using reg = double;
  using mask = bool;

  static reg zero() noexcept { return 0.0; }
  static reg broadcast(double x) noexcept { return x; }
  static reg load(const double* p) noexcept { return *p; }
  static void store(double* p, reg v) noexcept { *p = v; }
  static reg add(reg a, reg b) noexcept { return a + b; }
  static reg sub(reg a, reg b) noexcept { return a - b; }
  static reg mul(reg a, reg b) noexcept { return a * b; }
  /// MINPD convention: second operand on equality.
  static reg min(reg a, reg b) noexcept { return a < b ? a : b; }
  static reg max(reg a, reg b) noexcept { return a > b ? a : b; }
  static mask less(reg a, reg b) noexcept { return a < b; }
  static mask less_equal(reg a, reg b) noexcept { return a <= b; }
  static mask mask_and(mask a, mask b) noexcept { return a && b; }
  static reg blend(mask m, reg a, reg b) noexcept { return m ? a : b; }

  /// Index register: one row of lane indices, loaded once and reused for
  /// every ELT gathered against that row.
  using ivec = std::uint32_t;
  static ivec load_index(const std::uint32_t* p) noexcept { return *p; }

  /// Lane i = idx[i] < universe ? base[idx[i]] : 0.0 — the direct-access
  /// ELT lookup with its out-of-universe guard.
  static reg gather_guarded(const double* base, ivec idx, std::size_t universe) noexcept {
    return idx < universe ? base[idx] : 0.0;
  }
  static reg gather_guarded(const double* base, const std::uint32_t* idx,
                            std::size_t universe) noexcept {
    return gather_guarded(base, load_index(idx), universe);
  }

  /// Lane i = m[i] ? base[idx[i]] : 0.0 over doubles, or over float
  /// timestamps widened (exactly) to doubles. A masked-off lane reads
  /// nothing, so its index may point anywhere.
  template <typename T>
  static reg gather_masked(const T* base, ivec idx, mask m) noexcept {
    return m ? static_cast<double>(base[idx]) : 0.0;
  }
};

// ---------------------------------------------------------------------------
// SSE2: 2 double lanes. No gather instruction at this tier — the guarded
// gather is two scalar loads feeding a vector register.
// ---------------------------------------------------------------------------
#if ARE_SIMD_HAVE_SSE2
template <>
struct VecD<sse2_ext> {
  static constexpr std::size_t kLanes = 2;
  static constexpr std::string_view kName = "sse2";
  using reg = __m128d;
  using mask = __m128d;

  static reg zero() noexcept { return _mm_setzero_pd(); }
  static reg broadcast(double x) noexcept { return _mm_set1_pd(x); }
  static reg load(const double* p) noexcept { return _mm_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm_storeu_pd(p, v); }
  static reg add(reg a, reg b) noexcept { return _mm_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm_mul_pd(a, b); }
  static reg min(reg a, reg b) noexcept { return _mm_min_pd(a, b); }
  static reg max(reg a, reg b) noexcept { return _mm_max_pd(a, b); }
  static mask less(reg a, reg b) noexcept { return _mm_cmplt_pd(a, b); }
  static mask less_equal(reg a, reg b) noexcept { return _mm_cmple_pd(a, b); }
  static mask mask_and(mask a, mask b) noexcept { return _mm_and_pd(a, b); }
  static reg blend(mask m, reg a, reg b) noexcept {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }

  using ivec = std::array<std::uint32_t, 2>;
  static ivec load_index(const std::uint32_t* p) noexcept { return {p[0], p[1]}; }

  static reg gather_guarded(const double* base, ivec idx, std::size_t universe) noexcept {
    return _mm_set_pd(idx[1] < universe ? base[idx[1]] : 0.0,
                      idx[0] < universe ? base[idx[0]] : 0.0);
  }
  static reg gather_guarded(const double* base, const std::uint32_t* idx,
                            std::size_t universe) noexcept {
    return gather_guarded(base, load_index(idx), universe);
  }

  template <typename T>
  static reg gather_masked(const T* base, ivec idx, mask m) noexcept {
    const int live = _mm_movemask_pd(m);
    return _mm_set_pd((live & 2) != 0 ? static_cast<double>(base[idx[1]]) : 0.0,
                      (live & 1) != 0 ? static_cast<double>(base[idx[0]]) : 0.0);
  }
};
#endif  // ARE_SIMD_HAVE_SSE2

// ---------------------------------------------------------------------------
// AVX2: 4 double lanes with a real masked hardware gather. The u32 event
// ids are widened to i64 so the bounds compare is correct for the
// invalid-event sentinel 0xFFFFFFFF (as i32 it would compare negative).
// Masked-off lanes of VGATHERQPD are not loaded, so out-of-universe ids
// never touch memory.
// ---------------------------------------------------------------------------
#if ARE_SIMD_HAVE_AVX2
template <>
struct VecD<avx2_ext> {
  static constexpr std::size_t kLanes = 4;
  static constexpr std::string_view kName = "avx2";
  using reg = __m256d;
  using mask = __m256d;

  static reg zero() noexcept { return _mm256_setzero_pd(); }
  static reg broadcast(double x) noexcept { return _mm256_set1_pd(x); }
  static reg load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
  static reg add(reg a, reg b) noexcept { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_pd(a, b); }
  static reg min(reg a, reg b) noexcept { return _mm256_min_pd(a, b); }
  static reg max(reg a, reg b) noexcept { return _mm256_max_pd(a, b); }
  static mask less(reg a, reg b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static mask less_equal(reg a, reg b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static mask mask_and(mask a, mask b) noexcept { return _mm256_and_pd(a, b); }
  static reg blend(mask m, reg a, reg b) noexcept { return _mm256_blendv_pd(b, a, m); }

  /// Indices pre-widened to i64 so the bounds compare is correct for the
  /// invalid-event sentinel 0xFFFFFFFF (as i32 it would compare negative).
  using ivec = __m256i;
  static ivec load_index(const std::uint32_t* p) noexcept {
    return _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }

  static reg gather_guarded(const double* base, ivec idx64, std::size_t universe) noexcept {
    const __m256i in_bounds =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(universe)), idx64);
    return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), base, idx64,
                                    _mm256_castsi256_pd(in_bounds), sizeof(double));
  }
  static reg gather_guarded(const double* base, const std::uint32_t* idx,
                            std::size_t universe) noexcept {
    return gather_guarded(base, load_index(idx), universe);
  }

  static reg gather_masked(const double* base, ivec idx64, mask m) noexcept {
    return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), base, idx64, m, sizeof(double));
  }
  /// The float gather takes its mask as four 32-bit lanes: the low half of
  /// each 64-bit lane of `m` (all-ones or all-zeros) carries it.
  static reg gather_masked(const float* base, ivec idx64, mask m) noexcept {
    const __m128 m32 = _mm_castsi128_ps(_mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(m), _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6))));
    return _mm256_cvtps_pd(
        _mm256_mask_i64gather_ps(_mm_setzero_ps(), base, idx64, m32, sizeof(float)));
  }
};
#endif  // ARE_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// AVX-512F: 8 double lanes, predicate masks in k-registers.
// ---------------------------------------------------------------------------
#if ARE_SIMD_HAVE_AVX512
template <>
struct VecD<avx512_ext> {
  static constexpr std::size_t kLanes = 8;
  static constexpr std::string_view kName = "avx512";
  using reg = __m512d;
  using mask = __mmask8;

  static reg zero() noexcept { return _mm512_setzero_pd(); }
  static reg broadcast(double x) noexcept { return _mm512_set1_pd(x); }
  static reg load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm512_storeu_pd(p, v); }
  static reg add(reg a, reg b) noexcept { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_pd(a, b); }
  static reg min(reg a, reg b) noexcept { return _mm512_min_pd(a, b); }
  static reg max(reg a, reg b) noexcept { return _mm512_max_pd(a, b); }
  static mask less(reg a, reg b) noexcept { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static mask less_equal(reg a, reg b) noexcept { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static mask mask_and(mask a, mask b) noexcept { return static_cast<mask>(a & b); }
  static reg blend(mask m, reg a, reg b) noexcept { return _mm512_mask_blend_pd(m, b, a); }

  using ivec = __m512i;
  static ivec load_index(const std::uint32_t* p) noexcept {
    return _mm512_cvtepu32_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }

  static reg gather_guarded(const double* base, ivec idx64, std::size_t universe) noexcept {
    const mask in_bounds =
        _mm512_cmplt_epu64_mask(idx64, _mm512_set1_epi64(static_cast<long long>(universe)));
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), in_bounds, idx64, base, sizeof(double));
  }
  static reg gather_guarded(const double* base, const std::uint32_t* idx,
                            std::size_t universe) noexcept {
    return gather_guarded(base, load_index(idx), universe);
  }

  static reg gather_masked(const double* base, ivec idx64, mask m) noexcept {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), m, idx64, base, sizeof(double));
  }
  static reg gather_masked(const float* base, ivec idx64, mask m) noexcept {
    return _mm512_cvtps_pd(
        _mm512_mask_i64gather_ps(_mm256_setzero_ps(), m, idx64, base, sizeof(float)));
  }
};
#endif  // ARE_SIMD_HAVE_AVX512

// ---------------------------------------------------------------------------
// NEON (AArch64): 2 double lanes, scalar guarded gather.
// ---------------------------------------------------------------------------
#if ARE_SIMD_HAVE_NEON
template <>
struct VecD<neon_ext> {
  static constexpr std::size_t kLanes = 2;
  static constexpr std::string_view kName = "neon";
  using reg = float64x2_t;
  using mask = uint64x2_t;

  static reg zero() noexcept { return vdupq_n_f64(0.0); }
  static reg broadcast(double x) noexcept { return vdupq_n_f64(x); }
  static reg load(const double* p) noexcept { return vld1q_f64(p); }
  static void store(double* p, reg v) noexcept { vst1q_f64(p, v); }
  static reg add(reg a, reg b) noexcept { return vaddq_f64(a, b); }
  static reg sub(reg a, reg b) noexcept { return vsubq_f64(a, b); }
  static reg mul(reg a, reg b) noexcept { return vmulq_f64(a, b); }
  /// Select-based min/max to preserve the MINPD second-operand-on-equality
  /// convention (vminq_f64 is IEEE minNum, which differs only for NaN/±0 —
  /// selects keep the contract explicit).
  static reg min(reg a, reg b) noexcept { return vbslq_f64(vcltq_f64(a, b), a, b); }
  static reg max(reg a, reg b) noexcept { return vbslq_f64(vcgtq_f64(a, b), a, b); }
  static mask less(reg a, reg b) noexcept { return vcltq_f64(a, b); }
  static mask less_equal(reg a, reg b) noexcept { return vcleq_f64(a, b); }
  static mask mask_and(mask a, mask b) noexcept { return vandq_u64(a, b); }
  static reg blend(mask m, reg a, reg b) noexcept { return vbslq_f64(m, a, b); }

  using ivec = std::array<std::uint32_t, 2>;
  static ivec load_index(const std::uint32_t* p) noexcept { return {p[0], p[1]}; }

  static reg gather_guarded(const double* base, ivec idx, std::size_t universe) noexcept {
    const double lo = idx[0] < universe ? base[idx[0]] : 0.0;
    const double hi = idx[1] < universe ? base[idx[1]] : 0.0;
    return vsetq_lane_f64(hi, vdupq_n_f64(lo), 1);
  }
  static reg gather_guarded(const double* base, const std::uint32_t* idx,
                            std::size_t universe) noexcept {
    return gather_guarded(base, load_index(idx), universe);
  }

  template <typename T>
  static reg gather_masked(const T* base, ivec idx, mask m) noexcept {
    const double lo = vgetq_lane_u64(m, 0) != 0 ? static_cast<double>(base[idx[0]]) : 0.0;
    const double hi = vgetq_lane_u64(m, 1) != 0 ? static_cast<double>(base[idx[1]]) : 0.0;
    return vsetq_lane_f64(hi, vdupq_n_f64(lo), 1);
  }
};
#endif  // ARE_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Compile-time best extension for this translation unit's target flags.
// ---------------------------------------------------------------------------
#if ARE_SIMD_HAVE_AVX512
using best_ext = avx512_ext;
#elif ARE_SIMD_HAVE_AVX2
using best_ext = avx2_ext;
#elif ARE_SIMD_HAVE_SSE2
using best_ext = sse2_ext;
#elif ARE_SIMD_HAVE_NEON
using best_ext = neon_ext;
#else
using best_ext = scalar_ext;
#endif

using BestVec = VecD<best_ext>;

/// Widest lane count compiled into this build (8 on AVX-512, 4 on AVX2, …).
inline constexpr std::size_t kBestLanes = BestVec::kLanes;

/// Name of the extension `best_ext` resolves to ("avx512", "avx2", …).
inline constexpr std::string_view kBestName = BestVec::kName;

}  // namespace are::simd
