// Tests for the remaining extension modules: the OpenMP engine (the
// paper's actual CPU-parallel implementation) and the multi-GPU estimate
// (paper §IV).
#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/engine_registry.hpp"
#include "elt/synthetic.hpp"
#include "simgpu/multi_gpu.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

// --- OpenMP engine -------------------------------------------------------------

core::Portfolio small_portfolio() {
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 100e3;
  layer.terms.occurrence_limit = 5e6;
  layer.terms.aggregate_limit = 50e6;
  for (std::uint64_t e = 0; e < 4; ++e) {
    elt::SyntheticEltConfig config;
    config.catalog_size = 10'000;
    config.entries = 1'500;
    config.elt_id = e;
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                        elt::make_synthetic_elt(config), 10'000);
    layer_elt.terms.share = 0.75;
    layer.elts.push_back(std::move(layer_elt));
  }
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

TEST(OpenMpEngine, BitIdenticalToSequential) {
  const auto portfolio = small_portfolio();
  yet::YetConfig config;
  config.num_trials = 400;
  config.events_per_trial = 60.0;
  config.count_model = yet::CountModel::kPoisson;
  const auto yet_table = yet::generate_uniform_yet(config, 10'000);

  const auto sequential =
      core::run({portfolio, yet_table, {.engine = core::EngineKind::kSequential}});
  for (std::size_t threads : {1, 2, 4}) {
    core::AnalysisConfig config;
    config.engine = core::EngineKind::kOpenMp;
    config.num_threads = threads;
    const auto omp = core::run({portfolio, yet_table, config});
    ASSERT_EQ(omp.num_trials(), sequential.num_trials());
    for (std::size_t trial = 0; trial < sequential.num_trials(); ++trial) {
      ASSERT_EQ(omp.at(0, trial), sequential.at(0, trial)) << "threads " << threads;
    }
  }
}

TEST(OpenMpEngine, DefaultThreadCountWorks) {
  const auto portfolio = small_portfolio();
  yet::YetConfig config;
  config.num_trials = 50;
  config.events_per_trial = 20.0;
  const auto yet_table = yet::generate_uniform_yet(config, 10'000);
  const auto ylt = core::run({portfolio, yet_table, {.engine = core::EngineKind::kOpenMp}});
  EXPECT_EQ(ylt.num_trials(), 50u);
}

TEST(OpenMpEngine, InstrumentationSurfacesFallback) {
  // The silent-fallback footgun: whether OpenMP directives actually ran is
  // recorded in the sink instead of requiring callers to probe
  // openmp_available() themselves.
  const auto portfolio = small_portfolio();
  yet::YetConfig config;
  config.num_trials = 20;
  config.events_per_trial = 10.0;
  const auto yet_table = yet::generate_uniform_yet(config, 10'000);

  core::InstrumentationSink sink;
  core::AnalysisConfig analysis;
  analysis.engine = core::EngineKind::kOpenMp;
  analysis.instrumentation = &sink;
  core::run({portfolio, yet_table, analysis});

  ASSERT_TRUE(sink.engine_used.has_value());
  EXPECT_EQ(*sink.engine_used, core::EngineKind::kOpenMp);
  ASSERT_TRUE(sink.openmp_used.has_value());
  EXPECT_EQ(*sink.openmp_used, core::openmp_available());
}

TEST(OpenMpEngine, RegistryNoteExplainsAvailability) {
  const auto& descriptor = core::EngineRegistry::global().require("openmp");
  EXPECT_FALSE(descriptor.availability_note.empty());
}

TEST(OpenMpEngine, ReportsAvailability) {
#ifdef _OPENMP
  EXPECT_TRUE(core::openmp_available());
#else
  EXPECT_FALSE(core::openmp_available());
#endif
}

// --- Multi-GPU (paper §IV) -------------------------------------------------------

class MultiGpuTest : public ::testing::Test {
 protected:
  simgpu::DeviceSpec device_ = simgpu::DeviceSpec::tesla_c2075();
  simgpu::WorkloadShape shape_{1'000'000, 1000.0, 15.0, 1};
  static constexpr std::size_t kCatalog = 2'000'000;
};

TEST_F(MultiGpuTest, OneDeviceMatchesSingleKernelPlusTransfer) {
  const auto estimate = simgpu::estimate_multi_gpu(device_, shape_, 1, 192, 4, kCatalog);
  const auto kernel = simgpu::estimate_chunked_kernel(device_, shape_, 192, 4);
  EXPECT_NEAR(estimate.kernel_seconds, kernel.seconds, 1e-9);
  EXPECT_GT(estimate.transfer_seconds, 0.0);
  EXPECT_NEAR(estimate.speedup_vs_one, 1.0, 1e-9);
}

TEST_F(MultiGpuTest, SpeedupGrowsSublinearlyWithDevices) {
  const auto two = simgpu::estimate_multi_gpu(device_, shape_, 2, 192, 4, kCatalog);
  const auto four = simgpu::estimate_multi_gpu(device_, shape_, 4, 192, 4, kCatalog);
  const auto eight = simgpu::estimate_multi_gpu(device_, shape_, 8, 192, 4, kCatalog);
  EXPECT_GT(two.speedup_vs_one, 1.4);
  EXPECT_GT(four.speedup_vs_one, two.speedup_vs_one);
  EXPECT_GT(eight.speedup_vs_one, four.speedup_vs_one);
  // ELT replication caps scaling short of ideal.
  EXPECT_LT(eight.speedup_vs_one, 8.0);
}

TEST_F(MultiGpuTest, TransferIncludesEltReplication) {
  // Doubling the catalog doubles the replicated direct-access footprint.
  const auto small = simgpu::estimate_multi_gpu(device_, shape_, 4, 192, 4, 1'000'000);
  const auto large = simgpu::estimate_multi_gpu(device_, shape_, 4, 192, 4, 2'000'000);
  EXPECT_GT(large.transfer_seconds, small.transfer_seconds);
}

TEST_F(MultiGpuTest, DevicesForTargetFindsMinimalCount) {
  const auto one = simgpu::estimate_multi_gpu(device_, shape_, 1, 192, 4, kCatalog);
  // A target just below the 1-device time needs >= 2 devices.
  const int needed =
      simgpu::devices_for_target(device_, shape_, one.seconds * 0.9, 192, 4, kCatalog);
  EXPECT_GE(needed, 2);
  // A generous target needs exactly 1.
  EXPECT_EQ(simgpu::devices_for_target(device_, shape_, one.seconds * 2.0, 192, 4, kCatalog),
            1);
  // An impossible target returns 0 (ELT transfer floor never shrinks).
  EXPECT_EQ(simgpu::devices_for_target(device_, shape_, 1e-6, 192, 4, kCatalog, 8), 0);
}

TEST_F(MultiGpuTest, RejectsBadArguments) {
  EXPECT_THROW(simgpu::estimate_multi_gpu(device_, shape_, 0, 192, 4, kCatalog),
               std::invalid_argument);
  EXPECT_THROW(simgpu::devices_for_target(device_, shape_, -1.0, 192, 4, kCatalog),
               std::invalid_argument);
}

}  // namespace
