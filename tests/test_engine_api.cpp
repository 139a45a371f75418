// Tests for the unified engine API: the four-engine table (lookup by kind
// and by name, removed names failing with the four listed), AnalysisConfig
// validation, the pool check in core::run, execution facts recorded in the
// InstrumentationSink, and the engine x knob sweep: every engine at every
// lane type x event chunk x block size x window x output placement lands
// the bytes of scalar seq with the same window.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/engine_registry.hpp"
#include "elt/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "shard/sharded_run.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::AnalysisConfig;
using core::EngineDescriptor;
using core::EngineKind;
using core::EngineRegistry;
using core::SimdExtension;

constexpr std::size_t kUniverse = 10'000;

core::Portfolio test_portfolio(std::size_t elts = 3,
                               elt::LookupKind kind = elt::LookupKind::kDirectAccess,
                               std::size_t num_layers = 1) {
  core::Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 100e3;
    layer.terms.occurrence_limit = 5e6;
    layer.terms.aggregate_retention = 200e3;
    layer.terms.aggregate_limit = 50e6;
    for (std::uint64_t e = 0; e < elts; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 1'500;
      config.elt_id = l * 100 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.share = 0.8;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable test_yet(std::uint64_t trials = 300, double events = 40.0) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 17;
  return yet::generate_uniform_yet(config, kUniverse);
}

core::YearLossTable run_seq(const core::Portfolio& portfolio, const yet::YearEventTable& yet_table,
                            std::optional<core::CoverageWindow> window = std::nullopt) {
  AnalysisConfig config{.engine = EngineKind::kSequential};
  config.window = window;
  return core::run({portfolio, yet_table, config});
}

void expect_identical(const core::YearLossTable& a, const core::YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    const auto row_a = a.layer_losses(layer);
    const auto row_b = b.layer_losses(layer);
    ASSERT_EQ(0, std::memcmp(row_a.data(), row_b.data(), row_a.size() * sizeof(double)))
        << "layer " << layer;
  }
}

std::vector<SimdExtension> runnable_lanes() {
  std::vector<SimdExtension> lanes;
  for (const SimdExtension extension :
       {SimdExtension::kScalar, SimdExtension::kSse2, SimdExtension::kAvx2,
        SimdExtension::kAvx512, SimdExtension::kNeon}) {
    if (core::simd_extension_available(extension)) lanes.push_back(extension);
  }
  return lanes;
}

// --- The engine table -----------------------------------------------------------

TEST(EngineRegistry, FourSchedulesByKindAndByName) {
  const auto& registry = EngineRegistry::global();
  ASSERT_EQ(registry.descriptors().size(), 4u);
  EXPECT_EQ(registry.known_names(), "seq, parallel, openmp, fused");
  for (const EngineKind kind :
       {EngineKind::kSequential, EngineKind::kParallel, EngineKind::kOpenMp, EngineKind::kFused}) {
    const EngineDescriptor* by_kind = registry.find(kind);
    ASSERT_NE(by_kind, nullptr) << core::to_string(kind);
    EXPECT_EQ(by_kind->kind, kind);
    // The canonical name round-trips through name lookup and to_string.
    EXPECT_EQ(by_kind->name, core::to_string(kind));
    EXPECT_EQ(registry.find(by_kind->name), by_kind);
  }
}

TEST(EngineRegistry, UnknownAndRemovedNamesFailListingTheFour) {
  const auto& registry = EngineRegistry::global();
  const auto portfolio = test_portfolio(1);
  const auto yet_table = test_yet(20, 10.0);
  // The former engine names are knobs now, with no aliases.
  for (const char* name : {"chunked", "simd", "windowed", "instrumented", "warp-drive"}) {
    EXPECT_EQ(registry.find(name), nullptr) << name;
    AnalysisConfig config;
    config.engine_name = name;
    try {
      core::run({portfolio, yet_table, config});
      FAIL() << "expected std::invalid_argument for '" << name << "'";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(name), std::string::npos) << message;
      EXPECT_NE(message.find("seq, parallel, openmp, fused"), std::string::npos) << message;
    }
  }
}

TEST(EngineRegistry, PoolReuseAndAvailabilityNotes) {
  const auto& registry = EngineRegistry::global();
  EXPECT_FALSE(registry.require("seq").supports_pool_reuse);
  EXPECT_TRUE(registry.require("parallel").supports_pool_reuse);
  EXPECT_FALSE(registry.require("openmp").supports_pool_reuse);
  EXPECT_TRUE(registry.require("fused").supports_pool_reuse);
  // The lane-resolving engines carry the runtime dispatch facts, openmp
  // whether its directives or the pool fallback run.
  EXPECT_NE(registry.require("parallel").availability_note.find("auto runs"), std::string::npos);
  EXPECT_NE(registry.require("fused").availability_note.find("auto runs"), std::string::npos);
  EXPECT_FALSE(registry.require("openmp").availability_note.empty());
}

// --- AnalysisConfig validation and the pool check ------------------------------

TEST(AnalysisConfig, ValidateRejectsBadWindowAndZeroPartitionChunk) {
  AnalysisConfig config;
  EXPECT_NO_THROW(config.validate());

  config.window = core::CoverageWindow{0.7f, 0.3f};  // from >= to
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.window = core::CoverageWindow{-0.1f, 0.5f};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.window.reset();

  config.partition_chunk = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.partition_chunk = 256;

  // 0 is each knob's default: the whole block, and the block heuristic.
  config.chunk_size = 0;
  config.tile_trials = 0;
  EXPECT_NO_THROW(config.validate());
}

TEST(UnifiedRun, RejectsBorrowedPoolOnEnginesThatOwnTheirThreads) {
  const auto portfolio = test_portfolio(1);
  const auto yet_table = test_yet(20, 10.0);
  parallel::ThreadPool pool(2);
  for (const EngineKind kind : {EngineKind::kSequential, EngineKind::kOpenMp}) {
    AnalysisConfig config;
    config.engine = kind;
    config.pool = &pool;
    EXPECT_THROW(core::run({portfolio, yet_table, config}), std::invalid_argument)
        << core::to_string(kind);
  }
}

TEST(UnifiedRun, EveryEngineRejectsAnExtensionNotRunnableHere) {
  const auto portfolio = test_portfolio(1);
  const auto yet_table = test_yet(20, 10.0);
  bool found_unavailable = false;
  for (const auto extension :
       {SimdExtension::kSse2, SimdExtension::kAvx2, SimdExtension::kAvx512,
        SimdExtension::kNeon}) {
    if (core::simd_extension_available(extension)) continue;
    found_unavailable = true;
    for (const auto& engine : EngineRegistry::global().descriptors()) {
      AnalysisConfig config;
      config.engine_name = engine.name;
      config.simd_extension = extension;
      EXPECT_THROW(core::run({portfolio, yet_table, config}), std::invalid_argument)
          << engine.name << " " << core::to_string(extension);
    }
  }
  // x86 builds never compile NEON (and vice versa), so at least one
  // extension is always unavailable.
  EXPECT_TRUE(found_unavailable);
}

// --- The engine x knob sweep ----------------------------------------------------

// {seq, parallel, openmp, fused} x {scalar, each runnable extension} x
// chunk_size {0, 1, 7} x tile_trials {0, 7} x window {none, 0.25:0.75} x
// {materialized, sharded under a forced-spill budget}: every point must be
// byte-equal to scalar seq with the same window.
TEST(EngineKnobSweep, EveryEngineAndKnobMatchesScalarSeq) {
  const auto portfolio = test_portfolio(3, elt::LookupKind::kDirectAccess, /*num_layers=*/2);
  const auto yet_table = test_yet(97, 24.0);  // prime: ragged blocks, shards and lanes
  constexpr std::uint64_t kShardTrials = 16;
  const std::vector<SimdExtension> lanes = runnable_lanes();

  // The window genuinely bites on this workload.
  const core::YearLossTable full_year = run_seq(portfolio, yet_table);
  const core::YearLossTable windowed = run_seq(portfolio, yet_table, {{0.25f, 0.75f}});
  ASSERT_NE(0, std::memcmp(full_year.layer_losses(0).data(), windowed.layer_losses(0).data(),
                           full_year.num_trials() * sizeof(double)));

  std::size_t points = 0;
  for (const std::optional<core::CoverageWindow> window :
       {std::optional<core::CoverageWindow>{}, std::optional(core::CoverageWindow{0.25f, 0.75f})}) {
    const core::YearLossTable reference = run_seq(portfolio, yet_table, window);
    for (const auto& engine : EngineRegistry::global().descriptors()) {
      for (const SimdExtension lane : lanes) {
        for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
          for (const std::size_t tile : {std::size_t{0}, std::size_t{7}}) {
            SCOPED_TRACE(engine.name + " " + std::string(core::to_string(lane)) + " chunk " +
                         std::to_string(chunk) + " tile " + std::to_string(tile) +
                         (window ? " windowed" : " full-year"));
            core::InstrumentationSink sink;
            AnalysisConfig config;
            config.engine_name = engine.name;
            config.num_threads = 3;
            config.simd_extension = lane;
            config.chunk_size = chunk;
            config.tile_trials = tile;
            config.window = window;
            config.instrumentation = &sink;
            expect_identical(reference, core::run({portfolio, yet_table, config}));
            ASSERT_TRUE(sink.simd_extension_used.has_value());
            EXPECT_EQ(*sink.simd_extension_used, lane);

            config.output = core::OutputMode::kSharded;
            config.sharding.shard_trials = kShardTrials;
            // One shard resident: every other shard spills and faults back.
            config.sharding.memory_budget_bytes =
                portfolio.layers.size() * kShardTrials * sizeof(double);
            auto sharded = shard::run_sharded({portfolio, yet_table, config});
            expect_identical(reference, sharded.materialize());
            EXPECT_GT(sharded.stats().spills, 0u);
            ++points;
          }
        }
      }
    }
  }
  EXPECT_EQ(points, 2 * 4 * lanes.size() * 3 * 2);
}

TEST(EngineKnobSweep, EveryEngineRecordsItsLanesAndSeqStaysScalarUnderAuto) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet(50, 10.0);
  for (const auto& engine : EngineRegistry::global().descriptors()) {
    SCOPED_TRACE(engine.name);
    core::InstrumentationSink sink;
    AnalysisConfig config;
    config.engine_name = engine.name;
    config.num_threads = 2;
    config.instrumentation = &sink;
    core::run({portfolio, yet_table, config});
    ASSERT_EQ(sink.engine_used, engine.kind);
    ASSERT_TRUE(sink.simd_extension_used.has_value());
    ASSERT_TRUE(sink.simd_resolution_note.has_value());
    EXPECT_FALSE(sink.simd_resolution_note->empty());
    const SimdExtension expected =
        engine.kind == EngineKind::kSequential
            ? SimdExtension::kScalar
            : core::resolve_simd_extension_ex(portfolio, {2, SimdExtension::kAuto}).extension;
    EXPECT_EQ(*sink.simd_extension_used, expected);
  }
}

// --- Pool reuse ------------------------------------------------------------------

TEST(UnifiedRun, BorrowedPoolReusedAcrossRunsStaysBitIdentical) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet();
  const auto reference = run_seq(portfolio, yet_table);
  parallel::ThreadPool pool(3);
  for (const EngineKind kind : {EngineKind::kParallel, EngineKind::kFused}) {
    AnalysisConfig config;
    config.engine = kind;
    config.pool = &pool;
    SCOPED_TRACE(core::to_string(kind));
    expect_identical(reference, core::run({portfolio, yet_table, config}));
    expect_identical(reference, core::run({portfolio, yet_table, config}));  // pool still warm
  }
}

TEST(UnifiedRun, RunsWithoutSinkAndWithDefaults) {
  // Default config = parallel engine at hardware concurrency.
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet(50, 10.0);
  expect_identical(run_seq(portfolio, yet_table), core::run({portfolio, yet_table}));
}

}  // namespace
