// Tests for the shared trial-block kernel (core/trial_kernel.hpp) — the
// one loop nest every engine drives. The reference here is a deliberately
// naive inline transcription of the paper's basic algorithm (the seed
// repo's sequential loop), NOT any engine: the kernel must reproduce those
// bytes for every block size, lane width, window, event chunk, and sink.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <vector>

#include "core/trial_kernel.hpp"
#include "elt/synthetic.hpp"
#include "financial/trial_accumulator.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::CoverageWindow;
using core::KernelLaunch;
using core::Portfolio;
using core::TrialBlockKernel;
using core::TrialKernelConfig;
using core::TrialKernelScratch;
using core::YearLossTable;

constexpr std::size_t kUniverse = 20'000;

Portfolio synthetic_portfolio(std::size_t num_layers, std::size_t elts_per_layer,
                              elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 150e3;
    layer.terms.occurrence_limit = 3e6;
    layer.terms.aggregate_retention = 400e3;
    layer.terms.aggregate_limit = 30e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 1'500;
      config.elt_id = l * 100 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.occurrence_retention = 20e3;
      layer_elt.terms.share = 0.85;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable skewed_yet(std::uint64_t trials, double events) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kNegativeBinomial;
  config.dispersion = 2.0;
  config.seed = 47;
  return yet::generate_uniform_yet(config, kUniverse);
}

/// The seed repo's sequential loop, transcribed: per layer, per trial, per
/// event — virtual lookup, ELT terms combined in layer order, occurrence
/// terms, aggregate recurrence. The anchor every kernel configuration must
/// match byte for byte.
YearLossTable reference_ylt(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                            const CoverageWindow* window = nullptr) {
  std::vector<std::uint32_t> ids;
  for (const core::Layer& layer : portfolio.layers) ids.push_back(layer.id);
  YearLossTable ylt(std::move(ids), yet_table.num_trials());
  for (std::size_t layer_index = 0; layer_index < portfolio.layers.size(); ++layer_index) {
    const core::Layer& layer = portfolio.layers[layer_index];
    auto losses = ylt.layer_losses(layer_index);
    for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
      const auto events = yet_table.trial_events(trial);
      const auto times = yet_table.trial_times(trial);
      financial::TrialAccumulator accumulator(layer.terms);
      for (std::size_t k = 0; k < events.size(); ++k) {
        if (window != nullptr && !window->covers(times[k])) continue;
        double combined = 0.0;
        for (const core::LayerElt& layer_elt : layer.elts) {
          combined += layer_elt.terms.apply(layer_elt.lookup->lookup(events[k]));
        }
        accumulator.add_occurrence(layer.terms.apply_occurrence(combined));
      }
      losses[trial] = accumulator.trial_loss();
    }
  }
  return ylt;
}

void expect_identical(const YearLossTable& a, const YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    const auto row_a = a.layer_losses(layer);
    const auto row_b = b.layer_losses(layer);
    ASSERT_EQ(0, std::memcmp(row_a.data(), row_b.data(), row_a.size() * sizeof(double)))
        << "layer " << layer;
  }
}

YearLossTable run_kernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                         TrialKernelConfig config, KernelLaunch launch = {}) {
  std::vector<std::uint32_t> ids;
  for (const core::Layer& layer : portfolio.layers) ids.push_back(layer.id);
  YearLossTable ylt(std::move(ids), yet_table.num_trials());
  core::run_trial_kernel(portfolio, yet_table, config, launch, &ylt, nullptr);
  return ylt;
}

// --- Kernel vs seed reference across block sizes ------------------------------

class KernelBlockSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelBlockSizes, BitIdenticalToSeedReference) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(401, 30.0);  // prime trial count: ragged tail block
  const auto reference = reference_ylt(portfolio, yet_table);

  TrialKernelConfig config;
  config.block_trials = GetParam() == 0 ? 401 : GetParam();  // 0 stands for "all trials"
  expect_identical(reference, run_kernel(portfolio, yet_table, config));

  // The generic (virtual lookup_many) path too.
  const Portfolio generic = synthetic_portfolio(2, 2, elt::LookupKind::kRobinHood);
  expect_identical(reference_ylt(generic, yet_table), run_kernel(generic, yet_table, config));
}

INSTANTIATE_TEST_SUITE_P(Blocks, KernelBlockSizes, ::testing::Values(1, 7, 64, 0),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("all")
                                                  : "b" + std::to_string(info.param);
                         });

TEST(TrialKernel, LaneWidthsAndSchedulesShareTheBytes) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(300, 25.0);
  const auto reference = reference_ylt(portfolio, yet_table);

  for (const core::SimdExtension extension :
       {core::SimdExtension::kScalar, core::SimdExtension::kAuto}) {
    for (const core::EngineKind engine :
         {core::EngineKind::kSequential, core::EngineKind::kParallel,
          core::EngineKind::kFused}) {
      TrialKernelConfig config;
      config.extension = extension;
      config.block_trials = 37;
      KernelLaunch launch;
      launch.engine = engine;
      launch.num_threads = 3;
      SCOPED_TRACE(std::string(to_string(extension)) + "_" + std::string(to_string(engine)));
      expect_identical(reference, run_kernel(portfolio, yet_table, config, launch));
    }
  }
}

TEST(TrialKernel, EventChunkingNeverChangesTheBytes) {
  const Portfolio portfolio = synthetic_portfolio(1, 3);
  const auto yet_table = skewed_yet(200, 40.0);
  const auto reference = reference_ylt(portfolio, yet_table);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}, std::size_t{13}}) {
    TrialKernelConfig config;
    config.event_chunk = chunk;
    SCOPED_TRACE(chunk);
    expect_identical(reference, run_kernel(portfolio, yet_table, config));
  }
}

// --- Window edges -------------------------------------------------------------

TEST(TrialKernel, WindowEdges) {
  // Hand-built YET with exact timestamps so the window edges are
  // deterministic: trial 0 = {0.1, 0.5, 0.9}, trial 1 = {0.5}, trial 2 = {}.
  const std::vector<yet::EventId> events = {10, 20, 30, 20};
  const std::vector<float> times = {0.1f, 0.5f, 0.9f, 0.5f};
  const std::vector<std::uint64_t> offsets = {0, 3, 4, 4};
  const yet::YearEventTable yet_table(events, times, offsets);
  const Portfolio portfolio = synthetic_portfolio(1, 2);

  const auto unwindowed = reference_ylt(portfolio, yet_table);

  // Full-year window ≡ unwindowed, bit for bit.
  TrialKernelConfig config;
  config.window = CoverageWindow{0.0f, 1.0f};
  expect_identical(unwindowed, run_kernel(portfolio, yet_table, config));

  // A window covering no occurrence: every trial loss collapses to the
  // empty-trial value.
  config.window = CoverageWindow{0.95f, 1.0f};
  const auto empty = run_kernel(portfolio, yet_table, config);
  const CoverageWindow none{0.95f, 1.0f};
  expect_identical(reference_ylt(portfolio, yet_table, &none), empty);
  for (std::size_t trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(empty.at(0, trial), empty.at(0, 2)) << "trial " << trial;  // trial 2 is empty
  }

  // A single-event window: [0.5, 0.9) admits exactly the 0.5 occurrences
  // (`to` is exclusive, `from` inclusive).
  config.window = CoverageWindow{0.5f, 0.9f};
  const CoverageWindow single{0.5f, 0.9f};
  expect_identical(reference_ylt(portfolio, yet_table, &single),
                   run_kernel(portfolio, yet_table, config));
}

// --- The lane recurrence on ragged trials ----------------------------------------

/// 43 trials: every aligned group of eight mixes empty and one-event trials
/// with one long trial (at a different lane per group), and the last trial
/// of the table is long, so the widest lanes finish at every point of a
/// group and the last group is partial. Timestamps stay below 0.9.
yet::YearEventTable ragged_yet() {
  constexpr std::uint64_t kTrials = 43;
  std::vector<yet::EventId> events;
  std::vector<float> times;
  std::vector<std::uint64_t> offsets = {0};
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t group = trial / 8;
    const bool long_trial = trial == kTrials - 1 || trial % 8 == (3 * group) % 8;
    const std::uint64_t length = long_trial ? 40 + 3 * group : trial % 2;
    for (std::uint64_t k = 0; k < length; ++k) {
      events.push_back(static_cast<yet::EventId>((trial * 7 + k * 3) % 64 + 1));
      times.push_back(0.9f * (static_cast<float>(k) + 0.5f) / static_cast<float>(length));
    }
    offsets.push_back(events.size());
  }
  return yet::YearEventTable(std::move(events), std::move(times), std::move(offsets));
}

/// Two layers over one direct ELT of events 1..64 (100K-220K each). Layer 1's
/// aggregate retention absorbs a trial's first events and its limit runs
/// out mid-way through every long trial; layer 2 has occurrence terms only,
/// so the replay reads a second, offset layer of the capture.
Portfolio ragged_portfolio() {
  std::vector<elt::EventLoss> records;
  for (yet::EventId event = 1; event <= 64; ++event) {
    records.push_back({event, 100e3 + 10e3 * static_cast<double>(event % 13)});
  }
  const elt::EventLossTable table(std::move(records));
  Portfolio portfolio;
  for (std::uint32_t id : {1u, 2u}) {
    core::Layer layer;
    layer.id = id;
    layer.terms.occurrence_retention = 50e3;
    layer.terms.occurrence_limit = id == 1 ? 400e3 : 120e3;
    if (id == 1) {
      layer.terms.aggregate_retention = 250e3;
      layer.terms.aggregate_limit = 1e6;
    }
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, kUniverse);
    layer.elts.push_back(std::move(layer_elt));
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

TEST(TrialKernel, LaneRecurrenceOnRaggedTrials) {
  const auto yet_table = ragged_yet();
  const Portfolio portfolio = ragged_portfolio();
  const std::uint64_t trials = yet_table.num_trials();

  // The aggregate terms bind both ways on the unwindowed reference.
  const auto full_year = reference_ylt(portfolio, yet_table);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::size_t length = yet_table.trial_size(trial);
    if (length <= 1) {
      EXPECT_EQ(full_year.at(0, trial), 0.0) << "trial " << trial;
    }
    if (length >= 40) {
      EXPECT_EQ(full_year.at(0, trial), 1e6) << "trial " << trial;
    }
  }

  core::GroundUpLossCache captured(portfolio.layers.size(), yet_table.total_events());
  {
    TrialKernelConfig config;
    config.ground_up_capture = &captured;
    expect_identical(full_year, run_kernel(portfolio, yet_table, config));
  }

  std::vector<core::SimdExtension> extensions = {core::SimdExtension::kScalar};
  for (const core::SimdExtension extension :
       {core::SimdExtension::kSse2, core::SimdExtension::kAvx2, core::SimdExtension::kAvx512,
        core::SimdExtension::kNeon}) {
    if (core::simd_extension_available(extension)) extensions.push_back(extension);
  }
  const std::optional<CoverageWindow> windows[] = {
      std::nullopt, CoverageWindow{0.25f, 0.75f}, CoverageWindow{0.95f, 1.0f}};
  enum class Mode { kCold, kCapture, kReplay };
  std::size_t runs = 0;
  for (const std::optional<CoverageWindow>& window : windows) {
    const auto reference =
        reference_ylt(portfolio, yet_table, window ? &*window : nullptr);
    for (const core::SimdExtension extension : extensions) {
      for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{trials}}) {
        for (const Mode mode : {Mode::kCold, Mode::kCapture, Mode::kReplay}) {
          SCOPED_TRACE(std::string(to_string(extension)) + " block " + std::to_string(block) +
                       " mode " + std::to_string(static_cast<int>(mode)) +
                       (window ? " window " + std::to_string(window->from) : ""));
          core::GroundUpLossCache capture(portfolio.layers.size(), yet_table.total_events());
          TrialKernelConfig config;
          config.extension = extension;
          config.block_trials = block;
          config.window = window;
          if (mode == Mode::kCapture) config.ground_up_capture = &capture;
          if (mode == Mode::kReplay) config.ground_up_replay = &captured;
          expect_identical(reference, run_kernel(portfolio, yet_table, config));
          if (mode == Mode::kCapture) {
            EXPECT_EQ(0, std::memcmp(capture.layer_values(0), captured.layer_values(0),
                                     captured.memory_bytes()));
          }
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 3 * extensions.size() * 3 * 3);
}

// --- Sink block alignment -----------------------------------------------------

/// Records every emit and forwards into a YearLossTable; block_trials()
/// advertises an alignment the kernel must never violate.
class RecordingSink final : public core::YltSink {
 public:
  RecordingSink(YearLossTable& ylt, std::uint64_t block_trials)
      : ylt_(ylt), block_trials_(block_trials) {}

  void emit(std::size_t layer_index, std::uint64_t trial_begin,
            std::span<const double> losses) override {
    if (block_trials_ != 0) {
      // The whole block must live inside one alignment window.
      EXPECT_EQ(trial_begin / block_trials_,
                (trial_begin + losses.size() - 1) / block_trials_)
          << "block [" << trial_begin << ", " << trial_begin + losses.size()
          << ") crosses a " << block_trials_ << "-trial boundary";
    }
    double* row = ylt_.layer_losses(layer_index).data();
    for (std::size_t i = 0; i < losses.size(); ++i) {
      EXPECT_EQ(seen_.insert(layer_index * ylt_.num_trials() + trial_begin + i).second, true)
          << "cell emitted twice";
      row[trial_begin + i] = losses[i];
    }
  }

  std::uint64_t block_trials() const noexcept override { return block_trials_; }

  std::size_t cells_seen() const noexcept { return seen_.size(); }

 private:
  YearLossTable& ylt_;
  std::uint64_t block_trials_;
  std::set<std::uint64_t> seen_;
};

TEST(TrialKernel, SinkBlocksAlignAndCoverEveryCellOnce) {
  const Portfolio portfolio = synthetic_portfolio(2, 2);
  const auto yet_table = skewed_yet(201, 20.0);
  const auto reference = reference_ylt(portfolio, yet_table);

  // Alignment 10 deliberately indivisible by block_trials 16 (and vice
  // versa), so clamping must actually cut blocks.
  for (const std::uint64_t alignment : {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{0}}) {
    std::vector<std::uint32_t> ids = {1, 2};
    YearLossTable ylt(ids, yet_table.num_trials());
    RecordingSink sink(ylt, alignment);
    TrialKernelConfig config;
    config.block_trials = 16;
    SCOPED_TRACE(alignment);
    core::run_trial_kernel(portfolio, yet_table, config, {}, nullptr, &sink);
    EXPECT_EQ(sink.cells_seen(), 2 * yet_table.num_trials());
    expect_identical(reference, ylt);
  }
}

TEST(TrialKernel, RejectsAmbiguousDestination) {
  const Portfolio portfolio = synthetic_portfolio(1, 1);
  const auto yet_table = skewed_yet(10, 5.0);
  std::vector<std::uint32_t> ids = {1};
  YearLossTable ylt(ids, yet_table.num_trials());
  RecordingSink sink(ylt, 0);
  EXPECT_THROW(core::run_trial_kernel(portfolio, yet_table, {}, {}, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW(core::run_trial_kernel(portfolio, yet_table, {}, {}, &ylt, &sink),
               std::invalid_argument);
}

}  // namespace
