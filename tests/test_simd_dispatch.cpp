// Tests for the runtime SIMD dispatch layer (simd/dispatch.hpp): cpuid
// decoding against synthetic register values, the detected ∩ compiled
// selection rule with and without overrides, the ARE_SIMD_EXT environment
// hook, and — the load-bearing contract — bit-identical engine output on
// direct and hash tables under every runtime extension this host can pin.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "core/analysis.hpp"
#include "core/engine.hpp"
#include "core/engine_registry.hpp"
#include "elt/synthetic.hpp"
#include "io/csv.hpp"
#include "simd/dispatch.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using simd::Extension;
using simd::ExtensionMask;
using simd::mask_of;

// Intel SDM bit positions used by extensions_from_cpuid.
constexpr std::uint32_t kLeaf1EdxSse2 = 1u << 26;
constexpr std::uint32_t kLeaf1EcxOsxsave = 1u << 27;
constexpr std::uint32_t kLeaf1EcxAvx = 1u << 28;
constexpr std::uint32_t kLeaf7EbxAvx2 = 1u << 5;
constexpr std::uint32_t kLeaf7EbxAvx512f = 1u << 16;
constexpr std::uint64_t kXcr0Ymm = 0x6;        // XMM+YMM state saved
constexpr std::uint64_t kXcr0Zmm = 0x6 | 0xe0; // + opmask/ZMM state

/// RAII guard: set (or clear) ARE_SIMD_EXT and refresh the dispatch cache,
/// restoring both on destruction so test order never matters.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* prior = std::getenv("ARE_SIMD_EXT");
    if (prior != nullptr) saved_ = prior;
    had_prior_ = prior != nullptr;
    if (value != nullptr) {
      ::setenv("ARE_SIMD_EXT", value, 1);
    } else {
      ::unsetenv("ARE_SIMD_EXT");
    }
    simd::dispatch_refresh_for_testing();
  }
  ~ScopedSimdEnv() {
    if (had_prior_) {
      ::setenv("ARE_SIMD_EXT", saved_.c_str(), 1);
    } else {
      ::unsetenv("ARE_SIMD_EXT");
    }
    simd::dispatch_refresh_for_testing();
  }

 private:
  std::string saved_;
  bool had_prior_ = false;
};

// --- cpuid decoding (pure, synthetic registers) -------------------------------

TEST(SimdDispatchCpuid, Sse2OnlyMachine) {
  const ExtensionMask mask = simd::extensions_from_cpuid(0, kLeaf1EdxSse2, 0, 0);
  EXPECT_TRUE(simd::mask_has(mask, Extension::kScalar));
  EXPECT_TRUE(simd::mask_has(mask, Extension::kSse2));
  EXPECT_FALSE(simd::mask_has(mask, Extension::kAvx2));
  EXPECT_FALSE(simd::mask_has(mask, Extension::kAvx512));
}

TEST(SimdDispatchCpuid, Avx2NeedsOsxsaveAndYmmState) {
  // AVX2 CPU bit present but the OS does not save YMM state: no xgetbv
  // consent, so AVX2 must NOT be offered (executing it would fault or
  // corrupt registers across context switches).
  EXPECT_FALSE(simd::mask_has(
      simd::extensions_from_cpuid(kLeaf1EcxAvx, kLeaf1EdxSse2, kLeaf7EbxAvx2, 0),
      Extension::kAvx2));
  // OSXSAVE set but XCR0 lacks the YMM bits — same answer.
  EXPECT_FALSE(simd::mask_has(
      simd::extensions_from_cpuid(kLeaf1EcxOsxsave | kLeaf1EcxAvx, kLeaf1EdxSse2,
                                  kLeaf7EbxAvx2, 0x1),
      Extension::kAvx2));
  // The full chain: OSXSAVE + AVX + leaf7 AVX2 + YMM state saved.
  EXPECT_TRUE(simd::mask_has(
      simd::extensions_from_cpuid(kLeaf1EcxOsxsave | kLeaf1EcxAvx, kLeaf1EdxSse2,
                                  kLeaf7EbxAvx2, kXcr0Ymm),
      Extension::kAvx2));
}

TEST(SimdDispatchCpuid, Avx512NeedsZmmState) {
  const std::uint32_t ecx = kLeaf1EcxOsxsave | kLeaf1EcxAvx;
  const std::uint32_t ebx = kLeaf7EbxAvx2 | kLeaf7EbxAvx512f;
  // YMM-only XCR0 (a VM masking ZMM state): AVX2 yes, AVX-512 no.
  const ExtensionMask ymm_only = simd::extensions_from_cpuid(ecx, kLeaf1EdxSse2, ebx, kXcr0Ymm);
  EXPECT_TRUE(simd::mask_has(ymm_only, Extension::kAvx2));
  EXPECT_FALSE(simd::mask_has(ymm_only, Extension::kAvx512));
  const ExtensionMask zmm = simd::extensions_from_cpuid(ecx, kLeaf1EdxSse2, ebx, kXcr0Zmm);
  EXPECT_TRUE(simd::mask_has(zmm, Extension::kAvx512));
}

TEST(SimdDispatchCpuid, ScalarAlwaysPresent) {
  EXPECT_TRUE(simd::mask_has(simd::extensions_from_cpuid(0, 0, 0, 0), Extension::kScalar));
}

// --- choose_best: detected ∩ compiled, override, reasons ----------------------

TEST(SimdDispatchChoose, WidestOfIntersection) {
  const ExtensionMask detected =
      mask_of(Extension::kScalar) | mask_of(Extension::kSse2) | mask_of(Extension::kAvx2);
  const ExtensionMask compiled = mask_of(Extension::kScalar) | mask_of(Extension::kSse2) |
                                 mask_of(Extension::kAvx2) | mask_of(Extension::kAvx512);
  std::string why;
  // avx512 is compiled in but the host lacks it: the cap is cpuid's.
  EXPECT_EQ(simd::choose_best(detected, compiled, std::nullopt, &why), Extension::kAvx2);
  EXPECT_NE(why.find("cpuid"), std::string::npos) << why;
}

TEST(SimdDispatchChoose, CompiledInCap) {
  // Host detects avx512 but the binary only carries sse2 kernels — the
  // baseline-fleet-binary-on-a-big-host case. The cap is the build's.
  const ExtensionMask detected = mask_of(Extension::kScalar) | mask_of(Extension::kSse2) |
                                 mask_of(Extension::kAvx2) | mask_of(Extension::kAvx512);
  const ExtensionMask compiled = mask_of(Extension::kScalar) | mask_of(Extension::kSse2);
  std::string why;
  EXPECT_EQ(simd::choose_best(detected, compiled, std::nullopt, &why), Extension::kSse2);
  EXPECT_NE(why.find("not compiled"), std::string::npos) << why;
}

TEST(SimdDispatchChoose, RunnableOverrideWins) {
  const ExtensionMask both = mask_of(Extension::kScalar) | mask_of(Extension::kSse2) |
                             mask_of(Extension::kAvx2);
  std::string why;
  EXPECT_EQ(simd::choose_best(both, both, Extension::kSse2, &why), Extension::kSse2);
  EXPECT_NE(why.find("override"), std::string::npos) << why;
}

TEST(SimdDispatchChoose, ScalarOnlyIntersection) {
  std::string why;
  EXPECT_EQ(simd::choose_best(mask_of(Extension::kScalar), mask_of(Extension::kScalar),
                              std::nullopt, &why),
            Extension::kScalar);
}

// --- Host/process state -------------------------------------------------------

TEST(SimdDispatchHost, RunnableIsIntersection) {
  EXPECT_EQ(simd::runnable_extensions(),
            simd::detected_extensions() & simd::compiled_extensions());
  EXPECT_TRUE(simd::mask_has(simd::runnable_extensions(), Extension::kScalar));
  EXPECT_TRUE(simd::mask_has(simd::runnable_extensions(), simd::best_extension()));
}

TEST(SimdDispatchHost, NamesRoundTrip) {
  for (int i = 0; i < static_cast<int>(simd::kNumExtensions); ++i) {
    const auto extension = static_cast<Extension>(i);
    const auto parsed = simd::extension_from_name(simd::name_of(extension));
    ASSERT_TRUE(parsed.has_value()) << simd::name_of(extension);
    EXPECT_EQ(*parsed, extension);
  }
  EXPECT_FALSE(simd::extension_from_name("avx9000").has_value());
}

TEST(SimdDispatchHost, EnvOverridePinsBest) {
  // Pin every runnable non-scalar extension in turn; best must follow.
  for (int i = 0; i < static_cast<int>(simd::kNumExtensions); ++i) {
    const auto extension = static_cast<Extension>(i);
    if (!simd::mask_has(simd::runnable_extensions(), extension)) continue;
    ScopedSimdEnv env(std::string(simd::name_of(extension)).c_str());
    EXPECT_EQ(simd::best_extension(), extension) << simd::name_of(extension);
    EXPECT_NE(simd::best_extension_reason().find("override"), std::string::npos);
  }
}

TEST(SimdDispatchHost, UnknownOverrideDegradesToAuto) {
  const Extension unpinned = [] {
    ScopedSimdEnv clear(nullptr);
    return simd::best_extension();
  }();
  // A typo'd override must not kill runs — it degrades to auto selection.
  ScopedSimdEnv env("avx9000");
  EXPECT_FALSE(simd::env_override().has_value());
  EXPECT_EQ(simd::best_extension(), unpinned);
}

// --- Bit-identity across runtime extensions -----------------------------------

constexpr std::size_t kUniverse = 20'000;

core::Portfolio probe_portfolio(elt::LookupKind kind) {
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 200e3;
  layer.terms.occurrence_limit = 2e6;
  elt::SyntheticEltConfig config;
  config.catalog_size = kUniverse;
  config.entries = 2'000;
  core::LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
  layer.elts.push_back(std::move(layer_elt));
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

yet::YearEventTable probe_yet(std::uint64_t trials) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = 30.0;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 2012;
  return yet::generate_uniform_yet(config, kUniverse);
}

std::string ylt_csv(const core::YearLossTable& ylt) {
  std::ostringstream out;
  io::write_ylt_csv(out, ylt);
  return out.str();
}

TEST(SimdDispatchIdentity, EveryRuntimeOverrideIsByteIdentical) {
  const auto yet_table = probe_yet(257);
  for (const elt::LookupKind kind :
       {elt::LookupKind::kDirectAccess, elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo}) {
    const auto portfolio = probe_portfolio(kind);
    const std::string reference = [&] {
      ScopedSimdEnv clear(nullptr);
      return ylt_csv(core::run({portfolio, yet_table,
                                {.engine = core::EngineKind::kSequential, .num_threads = 1}}));
    }();
    for (int i = 0; i < static_cast<int>(simd::kNumExtensions); ++i) {
      const auto extension = static_cast<Extension>(i);
      // Scoped env check needs a refresh-free read first: runnable set is
      // override-independent, so query before pinning.
      const bool runnable = [&] {
        ScopedSimdEnv clear(nullptr);
        return simd::mask_has(simd::runnable_extensions(), extension);
      }();
      if (!runnable) continue;
      ScopedSimdEnv env(std::string(simd::name_of(extension)).c_str());
      for (const char* engine : {"parallel", "fused"}) {
        SCOPED_TRACE(std::string(engine) + " under ARE_SIMD_EXT=" + std::string(simd::name_of(extension)));
        core::AnalysisConfig config;
        config.engine_name = engine;
        config.engine = core::EngineRegistry::global().require(engine).kind;
        config.num_threads = 2;
        const std::string csv =
            ylt_csv(core::run({portfolio, yet_table, std::move(config)}));
        EXPECT_EQ(csv, reference);  // byte-compare, not tolerance
      }
    }
  }
}

}  // namespace
