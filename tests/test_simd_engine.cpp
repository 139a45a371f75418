// Tests for the SIMD lane types: the vec.hpp lane abstraction, kAuto's
// resolution, and bit-identical equivalence of every runnable lane type
// (AnalysisConfig::simd_extension) against scalar seq across lookup
// representations, thread counts, and the financial edge cases (empty
// ELTs, unlimited limits, share == 1.0, trial counts not divisible by the
// lane width).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/types.hpp"
#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "simd/dispatch.hpp"
#include "simd/vec.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::Layer;
using core::LayerElt;
using core::Portfolio;
using core::SimdExtension;
using core::SimdOptions;
using core::YearLossTable;

constexpr std::size_t kUniverse = 20'000;
/// 2.4 MB per direct table: past mem::kHugePageBytes, so these tables take
/// the huge-page allocation path.
constexpr std::size_t kHugeUniverse = 300'000;

std::vector<SimdExtension> available_extensions() {
  std::vector<SimdExtension> extensions;
  for (SimdExtension extension :
       {SimdExtension::kScalar, SimdExtension::kSse2, SimdExtension::kAvx2,
        SimdExtension::kAvx512, SimdExtension::kNeon}) {
    if (core::simd_extension_available(extension)) extensions.push_back(extension);
  }
  return extensions;
}

/// A hand-checkable YET: trial 0 = events {0, 1}, trial 1 = {2},
/// trial 2 = empty, trial 3 = {0, 0, 3} (same as test_engine.cpp).
yet::YearEventTable tiny_yet() {
  return yet::YearEventTable({0, 1, 2, 0, 0, 3}, {0.1f, 0.2f, 0.5f, 0.1f, 0.2f, 0.3f},
                             {0, 2, 3, 3, 6});
}

elt::EventLossTable tiny_elt() {
  return elt::EventLossTable({{0, 100.0}, {1, 200.0}, {2, 300.0}, {3, 400.0}});
}

Portfolio tiny_portfolio(const financial::LayerTerms& terms,
                         elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Layer layer;
  layer.id = 7;
  LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(kind, tiny_elt(), 10);
  layer.elts.push_back(std::move(layer_elt));
  layer.terms = terms;
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

Portfolio synthetic_portfolio(std::size_t num_layers, std::size_t elts_per_layer,
                              elt::LookupKind kind = elt::LookupKind::kDirectAccess,
                              double share = 0.9, std::size_t universe = kUniverse) {
  Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 200e3;
    layer.terms.occurrence_limit = 2e6;
    layer.terms.aggregate_retention = 500e3;
    layer.terms.aggregate_limit = 20e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = universe;
      config.entries = 2'000;
      config.elt_id = l * 100 + e;
      LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), universe);
      layer_elt.terms.occurrence_retention = 10e3;
      layer_elt.terms.share = share;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable synthetic_yet(std::uint64_t trials, double events,
                                  std::size_t universe = kUniverse) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 31;
  return yet::generate_uniform_yet(config, universe);
}

YearLossTable run_seq(const Portfolio& portfolio, const yet::YearEventTable& yet_table) {
  return core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
}

/// The parallel engine at one lane type.
YearLossTable run_lanes(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                        SimdExtension extension, std::size_t threads = 1) {
  return core::run({portfolio, yet_table,
                    {.engine = core::EngineKind::kParallel,
                     .num_threads = threads,
                     .simd_extension = extension}});
}

void expect_identical(const YearLossTable& a, const YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    for (std::size_t trial = 0; trial < a.num_trials(); ++trial) {
      ASSERT_EQ(a.at(layer, trial), b.at(layer, trial)) << "layer " << layer << " trial " << trial;
    }
  }
}

// --- vec.hpp lane abstraction -------------------------------------------------

template <typename V>
void check_vec_ops() {
  constexpr std::size_t kW = V::kLanes;
  double a_data[kW], b_data[kW], out[kW];
  for (std::size_t i = 0; i < kW; ++i) {
    a_data[i] = static_cast<double>(i) + 0.5;
    b_data[i] = static_cast<double>(kW - i);
  }
  const auto a = V::load(a_data);
  const auto b = V::load(b_data);

  V::store(out, V::add(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] + b_data[i]);
  V::store(out, V::sub(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] - b_data[i]);
  V::store(out, V::mul(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] * b_data[i]);
  V::store(out, V::min(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] < b_data[i] ? a_data[i] : b_data[i]);
  V::store(out, V::max(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] > b_data[i] ? a_data[i] : b_data[i]);
  V::store(out, V::blend(V::less(a, b), a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] < b_data[i] ? a_data[i] : b_data[i]);
  V::store(out, V::broadcast(3.25));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], 3.25);

  // Guarded gather: in-universe ids load, out-of-universe (including the
  // invalid-event sentinel) produce 0.0.
  double table[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  std::uint32_t idx[kW];
  for (std::size_t i = 0; i < kW; ++i) {
    idx[i] = i % 2 == 0 ? static_cast<std::uint32_t>(i) : catalog::kInvalidEvent;
  }
  V::store(out, V::gather_guarded(table, idx, 8));
  for (std::size_t i = 0; i < kW; ++i) {
    EXPECT_EQ(out[i], i % 2 == 0 ? table[i] : 0.0) << "lane " << i;
  }
}

TEST(SimdVec, ScalarOps) { check_vec_ops<simd::VecD<simd::scalar_ext>>(); }
#if ARE_SIMD_HAVE_SSE2
TEST(SimdVec, Sse2Ops) { check_vec_ops<simd::VecD<simd::sse2_ext>>(); }
#endif
#if ARE_SIMD_HAVE_AVX2
TEST(SimdVec, Avx2Ops) { check_vec_ops<simd::VecD<simd::avx2_ext>>(); }
#endif
#if ARE_SIMD_HAVE_AVX512
TEST(SimdVec, Avx512Ops) { check_vec_ops<simd::VecD<simd::avx512_ext>>(); }
#endif
#if ARE_SIMD_HAVE_NEON
TEST(SimdVec, NeonOps) { check_vec_ops<simd::VecD<simd::neon_ext>>(); }
#endif

TEST(SimdVec, BestExtensionIsAvailable) {
  EXPECT_TRUE(core::simd_extension_available(core::best_simd_extension()));
  // kAuto's lane width is the runtime dispatch decision's width, not the
  // compile-time simd::kBestLanes of this TU — on a baseline build the
  // runtime choice is wider than anything this TU was compiled with.
  EXPECT_EQ(core::simd_lane_width(SimdExtension::kAuto),
            simd::lanes_of(simd::best_extension()));
  EXPECT_EQ(core::simd_lane_width(SimdExtension::kScalar), 1u);
}

TEST(SimdVec, UnavailableExtensionThrows) {
  for (SimdExtension extension :
       {SimdExtension::kSse2, SimdExtension::kAvx2, SimdExtension::kAvx512,
        SimdExtension::kNeon}) {
    if (core::simd_extension_available(extension)) continue;
    EXPECT_THROW(run_lanes(tiny_portfolio(financial::LayerTerms{}), tiny_yet(), extension),
                 std::invalid_argument);
    EXPECT_THROW(core::simd_lane_width(extension), std::invalid_argument);
  }
}

TEST(SimdVec, AutoRunsWidestLanesAtEveryFootprint) {
  const SimdExtension best = core::best_simd_extension();
  const SimdOptions auto_options;
  // A tiny cache-resident portfolio resolves to the widest extension...
  EXPECT_EQ(
      core::resolve_simd_extension_ex(tiny_portfolio(financial::LayerTerms{}), auto_options)
          .extension,
      best);
  // ...and so does one direct ELT over a 2M-event universe (a 16 MB dense
  // table, far past any cache): the widest lanes win there too.
  Layer layer;
  layer.id = 1;
  LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, tiny_elt(), 2'000'000);
  layer.elts.push_back(std::move(layer_elt));
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  EXPECT_EQ(core::resolve_simd_extension_ex(portfolio, auto_options).extension, best);
  // An explicit extension request is never overridden.
  for (SimdExtension extension : available_extensions()) {
    SimdOptions forced;
    forced.extension = extension;
    EXPECT_EQ(core::resolve_simd_extension_ex(portfolio, forced).extension, extension);
  }
}

// --- Hand-computed correctness ------------------------------------------------

TEST(SimdEngine, HandComputedCombinedTerms) {
  financial::LayerTerms terms;
  terms.occurrence_retention = 150.0;
  terms.occurrence_limit = 200.0;
  terms.aggregate_retention = 60.0;
  terms.aggregate_limit = 120.0;
  // Same expectations as the sequential engine's hand-computed case.
  for (SimdExtension extension : available_extensions()) {
    const auto ylt = run_lanes(tiny_portfolio(terms), tiny_yet(), extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 0), 0.0) << to_string(extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 1), 90.0) << to_string(extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 2), 0.0) << to_string(extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 3), 120.0) << to_string(extension);
  }
}

// --- Bit-identical equivalence vs scalar seq -----------------------------------

TEST(SimdEngine, MatchesSequentialOnEveryLookupKind) {
  // The small universe keeps every table cache-resident; the large one puts
  // each direct table on the huge-page allocation path.
  for (const std::size_t universe : {kUniverse, kHugeUniverse}) {
    const auto yet_table = synthetic_yet(257, 40.0, universe);  // not divisible by any lane width
    for (const elt::LookupKind kind :
         {elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector,
          elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo, elt::LookupKind::kPagedDirect}) {
      const auto portfolio = synthetic_portfolio(2, 3, kind, 0.9, universe);
      const auto reference = run_seq(portfolio, yet_table);
      for (SimdExtension extension : available_extensions()) {
        SCOPED_TRACE(std::to_string(universe) + "/" + std::string(to_string(kind)) + "/" +
                     std::string(to_string(extension)));
        expect_identical(run_lanes(portfolio, yet_table, extension), reference);
      }
    }
  }
}

TEST(SimdEngine, LaneWidthIndependentOnRaggedTrialCounts) {
  // Trial counts chosen to exercise every tail residue of widths 2, 4, 8.
  for (const std::uint64_t trials : {1u, 2u, 3u, 5u, 8u, 13u, 64u, 67u}) {
    const auto yet_table = synthetic_yet(trials, 25.0);
    const auto portfolio = synthetic_portfolio(1, 2);
    const auto reference = run_seq(portfolio, yet_table);
    for (SimdExtension extension : available_extensions()) {
      SCOPED_TRACE(std::to_string(trials) + " trials / " + std::string(to_string(extension)));
      expect_identical(run_lanes(portfolio, yet_table, extension), reference);
    }
  }
}

TEST(SimdEngine, MatchesSequentialWithEmptyElt) {
  // A layer mixing an empty ELT (all lookups zero) with a populated one.
  Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 10e3;
  LayerElt empty_elt;
  empty_elt.lookup =
      elt::make_lookup(elt::LookupKind::kDirectAccess, elt::EventLossTable{}, kUniverse);
  layer.elts.push_back(std::move(empty_elt));
  elt::SyntheticEltConfig config;
  config.catalog_size = kUniverse;
  config.entries = 1'000;
  LayerElt real_elt;
  real_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                     elt::make_synthetic_elt(config), kUniverse);
  layer.elts.push_back(std::move(real_elt));
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));

  const auto yet_table = synthetic_yet(101, 30.0);
  const auto reference = run_seq(portfolio, yet_table);
  for (SimdExtension extension : available_extensions()) {
    expect_identical(run_lanes(portfolio, yet_table, extension), reference);
  }
}

TEST(SimdEngine, MatchesSequentialWithUnlimitedLimitsAndFullShare) {
  // All limits unlimited and share == 1.0 — the boundary where the
  // financial pipeline degenerates to pure sums.
  Portfolio portfolio = synthetic_portfolio(1, 3, elt::LookupKind::kDirectAccess, /*share=*/1.0);
  for (auto& layer : portfolio.layers) {
    layer.terms.occurrence_limit = financial::kUnlimited;
    layer.terms.aggregate_limit = financial::kUnlimited;
    layer.terms.occurrence_retention = 0.0;
    layer.terms.aggregate_retention = 0.0;
    for (auto& layer_elt : layer.elts) {
      layer_elt.terms.occurrence_limit = financial::kUnlimited;
      layer_elt.terms.occurrence_retention = 0.0;
    }
  }
  const auto yet_table = synthetic_yet(97, 35.0);
  const auto reference = run_seq(portfolio, yet_table);
  for (SimdExtension extension : available_extensions()) {
    expect_identical(run_lanes(portfolio, yet_table, extension), reference);
  }
}

TEST(SimdEngine, ThreadCompositionIsBitIdentical) {
  // simd x threads: thread-block boundaries regroup trials into different
  // batches, which must not change any trial's result.
  const auto yet_table = synthetic_yet(211, 30.0);
  const auto portfolio = synthetic_portfolio(2, 2);
  const auto reference = run_seq(portfolio, yet_table);
  for (const std::size_t threads : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE(threads);
    expect_identical(run_lanes(portfolio, yet_table, SimdExtension::kAuto, threads), reference);
  }
}

}  // namespace
