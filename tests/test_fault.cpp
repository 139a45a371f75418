// Chaos suite for the fault-injection framework (src/fault/) and the
// failure hardening it exercises end to end:
//
//   - trigger grammar + deterministic firing (same seed, same pattern);
//   - registry arming (env-style lists, ScopedArm, per-site tallies);
//   - every injection site fired and surfacing as a structured
//     core::StatusError: io.write/io.read (binary streams), shard spill
//     write rollback, corrupt-shard quarantine + discard() recompute,
//     kernel scratch allocation;
//   - cooperative cancellation and deadlines at trial-block granularity
//     (kernel.cancelled_blocks counter);
//   - the service boundary: execution failures become kFailed responses
//     carrying a Status (never exceptions), admitted broker cost is always
//     released, nothing is cached, and a subsequent clean quote on the
//     same live service is bit-identical to a fault-free run;
//   - broker shutdown waking queued waiters with kShuttingDown;
//   - a concurrent chaos run over one service: kernel.alloc armed with an
//     every:N trigger, every response ok or structured, no inflight-cost
//     leak.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/cancel.hpp"
#include "core/status.hpp"
#include "elt/synthetic.hpp"
#include "fault/fault_injection.hpp"
#include "io/binary.hpp"
#include "obs/telemetry.hpp"
#include "service/analysis_service.hpp"
#include "service/request_broker.hpp"
#include "service/server.hpp"
#include "shard/shard_store.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

constexpr std::size_t kUniverse = 20'000;

/// Every test starts and ends with a disarmed process — a leaked armed site
/// would poison unrelated suites through the global registry.
class Fault : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::global().disarm_all();
    obs::set_enabled(false);
    obs::TelemetryRegistry::global().reset();
  }
  void TearDown() override {
    fault::FaultRegistry::global().disarm_all();
    obs::set_enabled(false);
  }
};

core::Portfolio make_portfolio(std::size_t num_layers = 2, std::size_t elts_per_layer = 2) {
  core::Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 200e3;
    layer.terms.occurrence_limit = 2e6;
    layer.terms.aggregate_limit = 25e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 1'000;
      config.elt_id = l * 100 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                          elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.share = 0.8;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable make_yet(std::uint64_t trials = 512, double events = 20.0) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 2012;
  return yet::generate_uniform_yet(config, kUniverse);
}

bool bit_identical(const core::YearLossTable& a, const core::YearLossTable& b) {
  if (a.num_layers() != b.num_layers() || a.num_trials() != b.num_trials()) return false;
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    if (std::memcmp(a.layer_losses(layer).data(), b.layer_losses(layer).data(),
                    a.num_trials() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- Trigger grammar and determinism -----------------------------------------

TEST_F(Fault, TriggerGrammarParses) {
  EXPECT_EQ(fault::parse_trigger("always").kind, fault::Trigger::Kind::kAlways);
  EXPECT_EQ(fault::parse_trigger("never").kind, fault::Trigger::Kind::kNever);
  EXPECT_EQ(fault::parse_trigger("once").kind, fault::Trigger::Kind::kOnce);

  const auto every = fault::parse_trigger("every:3");
  EXPECT_EQ(every.kind, fault::Trigger::Kind::kEveryNth);
  EXPECT_EQ(every.n, 3u);

  const auto after = fault::parse_trigger("after:10");
  EXPECT_EQ(after.kind, fault::Trigger::Kind::kAfterNth);
  EXPECT_EQ(after.n, 10u);

  const auto prob = fault::parse_trigger("prob:0.25:42");
  EXPECT_EQ(prob.kind, fault::Trigger::Kind::kProbability);
  EXPECT_DOUBLE_EQ(prob.probability, 0.25);
  EXPECT_EQ(prob.seed, 42u);

  for (const char* bad : {"", "sometimes", "every:0", "every:x", "after:", "prob:1.5",
                          "prob:-0.1", "prob:abc"}) {
    EXPECT_THROW((void)fault::parse_trigger(bad), std::invalid_argument) << bad;
  }
}

TEST_F(Fault, CountingTriggersFireExactlyWhereSpecified) {
  const auto every = fault::parse_trigger("every:3");
  const auto once = fault::parse_trigger("once");
  const auto after = fault::parse_trigger("after:2");
  for (std::uint64_t hit = 1; hit <= 12; ++hit) {
    EXPECT_EQ(fault::trigger_fires(every, 0, hit), hit % 3 == 0) << hit;
    EXPECT_EQ(fault::trigger_fires(once, 0, hit), hit == 1) << hit;
    EXPECT_EQ(fault::trigger_fires(after, 0, hit), hit > 2) << hit;
  }
}

TEST_F(Fault, ProbabilityTriggerIsDeterministicPerSeedAndSite) {
  const auto trigger = fault::parse_trigger("prob:0.3:7");
  std::vector<bool> first, second;
  for (std::uint64_t hit = 1; hit <= 200; ++hit) {
    first.push_back(fault::trigger_fires(trigger, 0x1234, hit));
    second.push_back(fault::trigger_fires(trigger, 0x1234, hit));
  }
  EXPECT_EQ(first, second);  // pure function of (seed, site, hit)

  // Roughly the right rate (0.3 +- generous slack over 200 draws), and a
  // different site hash decorrelates the stream.
  const auto fires = static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 30u);
  EXPECT_LT(fires, 90u);
  std::vector<bool> other_site;
  for (std::uint64_t hit = 1; hit <= 200; ++hit) {
    other_site.push_back(fault::trigger_fires(trigger, 0x9999, hit));
  }
  EXPECT_NE(first, other_site);
}

// --- Registry ----------------------------------------------------------------

TEST_F(Fault, RegistryArmsFromListAndTallies) {
  auto& registry = fault::FaultRegistry::global();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_inject("some.site"));  // disarmed: no tally either

  registry.arm_from_list(" io.read=every:2 , io.write=once ");
  EXPECT_TRUE(fault::armed());
  const auto armed_sites = registry.armed_sites();
  EXPECT_EQ(armed_sites.size(), 2u);

  EXPECT_FALSE(fault::should_inject("io.read"));  // hit 1
  EXPECT_TRUE(fault::should_inject("io.read"));   // hit 2
  EXPECT_TRUE(fault::should_inject("io.write"));  // once: first hit
  EXPECT_FALSE(fault::should_inject("io.write"));
  EXPECT_EQ(registry.hits("io.read"), 2u);
  EXPECT_EQ(registry.injected("io.read"), 1u);
  EXPECT_EQ(registry.injected("io.write"), 1u);

  registry.arm("io.read", "never");  // "never" disarms
  registry.disarm("io.write");
  EXPECT_FALSE(fault::armed());
}

TEST_F(Fault, ScopedArmDisarmsOnExit) {
  {
    const fault::ScopedArm scoped("io.read=always");
    EXPECT_TRUE(fault::armed());
    EXPECT_TRUE(fault::should_inject("io.read"));
  }
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_inject("io.read"));
}

TEST_F(Fault, InjectedFiresBumpObsCounters) {
  obs::set_enabled(true);
  const fault::ScopedArm scoped("io.read=always");
  (void)fault::should_inject("io.read");
  (void)fault::should_inject("io.read");
  const auto snapshot = obs::TelemetryRegistry::global().snapshot();
  EXPECT_EQ(snapshot.counter_value("fault.injected.io.read"), 2u);
}

// --- Binary I/O sites --------------------------------------------------------

TEST_F(Fault, IoWriteAndReadSitesThrowIoError) {
  const std::vector<double> values{1.0, 2.0, 3.0};
  {
    const fault::ScopedArm scoped("io.write=always");
    std::ostringstream out;
    try {
      io::write_shard_binary(out, values);
      FAIL() << "expected StatusError";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kIoError);
    }
  }
  std::ostringstream out;
  io::write_shard_binary(out, values);
  {
    const fault::ScopedArm scoped("io.read=always");
    std::istringstream in(out.str());
    std::vector<double> restored(values.size());
    try {
      io::read_shard_binary(in, restored);
      FAIL() << "expected StatusError";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kIoError);
    }
  }
  // Clean round trip once disarmed.
  std::istringstream in(out.str());
  std::vector<double> restored(values.size());
  io::read_shard_binary(in, restored);
  EXPECT_EQ(restored, values);
}

TEST_F(Fault, CorruptReadSiteTripsTheChecksum) {
  std::ostringstream out;
  io::write_shard_binary(out, std::vector<double>{1.0, 2.0});
  const fault::ScopedArm scoped("shard.corrupt_read=always");
  std::istringstream in(out.str());
  std::vector<double> restored(2);
  try {
    io::read_shard_binary(in, restored);
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& error) {
    EXPECT_EQ(error.code(), core::StatusCode::kDataCorruption);
  }
}

// --- Shard store: spill rollback, quarantine, discard ------------------------

/// A two-shard store with a budget that fits exactly one shard, so pinning
/// one always evicts (and spills) the other.
struct TinyStore {
  std::filesystem::path dir;
  std::unique_ptr<shard::ShardStore> store;

  explicit TinyStore(const char* name) {
    dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    shard::ShardStoreConfig config;
    config.memory_budget_bytes = 256 * sizeof(double);
    config.spill_dir = dir.string();
    store = std::make_unique<shard::ShardStore>(std::vector<std::size_t>{256, 256}, config);
  }
  ~TinyStore() {
    store.reset();
    std::filesystem::remove_all(dir);
  }
};

TEST_F(Fault, SpillWriteFailureRollsTheVictimBack) {
  TinyStore tiny("are_fault_spill");
  { auto pin = tiny.store->pin(0); pin.data()[0] = 42.0; }

  {
    const fault::ScopedArm scoped("shard.spill_write=always");
    try {
      (void)tiny.store->pin(1);  // must evict+spill shard 0 -> injected failure
      FAIL() << "expected StatusError";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kSpillFailure);
    }
  }
  // The victim was rolled back to residency: its bytes are intact and the
  // store keeps working once the fault clears.
  { auto pin = tiny.store->pin(0); EXPECT_EQ(pin.data()[0], 42.0); }
  { auto pin = tiny.store->pin(1); EXPECT_EQ(pin.data()[0], 0.0); }
  EXPECT_GE(tiny.store->stats().spills, 1u);  // post-fault evictions succeed

  // No *.tmp debris: the failed attempt cleaned up after itself.
  for (const auto& entry : std::filesystem::recursive_directory_iterator(tiny.dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(Fault, CorruptShardIsQuarantinedAndDiscardRecovers) {
  TinyStore tiny("are_fault_quarantine");
  { auto pin = tiny.store->pin(0); pin.data()[0] = 42.0; }
  { auto pin = tiny.store->pin(1); }  // spills shard 0

  {
    const fault::ScopedArm scoped("shard.corrupt_read=always");
    try {
      (void)tiny.store->pin(0);  // fault-in fails its checksum
      FAIL() << "expected StatusError";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kDataCorruption);
    }
  }
  EXPECT_EQ(tiny.store->stats().quarantined, 1u);
  // Still quarantined with the fault disarmed: the *file* is bad, not the
  // read path.
  EXPECT_THROW((void)tiny.store->pin(0), core::StatusError);

  // discard() is the recompute fallback: the shard returns virtually zero.
  tiny.store->discard(0);
  { auto pin = tiny.store->pin(0); EXPECT_EQ(pin.data()[0], 0.0); }
}

TEST_F(Fault, OrphanedTmpFilesAreSweptOnConstruction) {
  const auto dir = std::filesystem::temp_directory_path() / "are_fault_sweep";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  { std::ofstream(dir / "shard_3.bin.tmp") << "half-written"; }
  { std::ofstream(dir / "keep.txt") << "unrelated"; }

  shard::ShardStoreConfig config;
  config.spill_dir = dir.string();
  shard::ShardStore store({16}, config);
  EXPECT_FALSE(std::filesystem::exists(dir / "shard_3.bin.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir / "keep.txt"));
  std::filesystem::remove_all(dir);
}

// --- Kernel: allocation faults, cancellation, deadlines ----------------------

TEST_F(Fault, KernelAllocSiteSurfacesAsBadAllocFromEveryEngine) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();
  {
    const fault::ScopedArm scoped("kernel.alloc=always");
    for (const char* engine : {"seq", "parallel", "fused"}) {
      core::AnalysisConfig config;
      config.engine_name = engine;
      config.num_threads = 2;
      EXPECT_THROW((void)core::run({portfolio, yet_table, config}), std::bad_alloc) << engine;
    }
  }
  EXPECT_FALSE(fault::armed());  // the scope disarmed its own sites
}

TEST_F(Fault, PreCancelledTokenStopsEveryEngineBetweenBlocks) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();
  core::CancelToken token;
  token.cancel();
  for (const char* engine : {"seq", "parallel", "fused"}) {
    core::AnalysisConfig config;
    config.engine_name = engine;
    config.num_threads = 2;
    config.cancel = &token;
    try {
      (void)core::run({portfolio, yet_table, config});
      FAIL() << engine << ": expected StatusError";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kCancelled) << engine;
    }
  }
  // Cancellation is attributable even without telemetry enabled: the
  // cancelled-blocks counter is bumped unconditionally.
  EXPECT_GT(obs::TelemetryRegistry::global().snapshot().counter_value("kernel.cancelled_blocks"),
            0u);
}

TEST_F(Fault, ExpiredDeadlineReportsDeadlineExceeded) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();
  core::CancelToken token;
  token.set_deadline_after(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  core::AnalysisConfig config;
  config.cancel = &token;
  try {
    (void)core::run({portfolio, yet_table, config});
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& error) {
    EXPECT_EQ(error.code(), core::StatusCode::kDeadlineExceeded);
  }
}

// --- Service boundary --------------------------------------------------------

std::unique_ptr<service::AnalysisService> make_service(std::uint64_t trials = 512,
                                                       double events = 20.0) {
  service::ServiceConfig config;
  config.session.num_threads = 2;
  config.default_engine = "fused";
  auto analysis_service =
      std::make_unique<service::AnalysisService>(make_yet(trials, events), config);
  analysis_service->register_portfolio("book", make_portfolio());
  return analysis_service;
}

std::int64_t inflight_cost() {
  return obs::TelemetryRegistry::global().snapshot().gauge_value("service.inflight_cost");
}

TEST_F(Fault, DeadlineExceededQuoteIsAFailedResponse) {
  // A workload big enough that a 1ms deadline reliably expires mid-run.
  // At 1000 events per trial default_tile_trials gives blocks of 52 trials
  // (a 1 MiB block budget at ~20 bytes per event), so 2000 trials (2M
  // occurrences) mean ~39 deadline checks: the cancellation lands between
  // blocks, not at the end of one giant tile.
  auto service_ptr = make_service(/*trials=*/2'000, /*events=*/1'000.0);
  auto& analysis_service = *service_ptr;
  obs::set_enabled(true);

  service::QuoteRequest request;
  request.portfolio_id = "book";
  request.deadline_ms = 1;
  request.use_cache = false;
  const auto response = analysis_service.quote(request);
  ASSERT_EQ(response.source, service::QuoteSource::kFailed);
  EXPECT_EQ(response.status.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.status.retryable());
  EXPECT_EQ(response.outcome, nullptr);
  EXPECT_EQ(inflight_cost(), 0);
  EXPECT_GT(obs::TelemetryRegistry::global().snapshot().counter_value("kernel.cancelled_blocks"),
            0u);

  // Nothing partial was cached: the identical request without the deadline
  // is a cold run, not a cache hit.
  service::QuoteRequest relaxed = request;
  relaxed.deadline_ms = 0;
  relaxed.use_cache = true;
  EXPECT_EQ(analysis_service.quote(relaxed).source, service::QuoteSource::kCold);
}

TEST_F(Fault, AllocFailureBecomesResourceExhaustedStatus) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;

  // Fault-free cold run first: the bit-identity reference.
  service::QuoteRequest reference_request;
  reference_request.portfolio_id = "book";
  reference_request.use_cache = false;
  reference_request.use_delta = false;
  const auto reference = analysis_service.quote(reference_request);
  ASSERT_EQ(reference.status.code(), core::StatusCode::kOk);
  ASSERT_NE(reference.outcome, nullptr);

  // The failing quote is cold and claims the capture slot, so the failure
  // path must give the slot back as well as the admitted cost.
  service::QuoteRequest request;
  request.portfolio_id = "book";
  request.use_cache = false;
  {
    const fault::ScopedArm scoped("kernel.alloc=always");
    const auto failed = analysis_service.quote(request);
    EXPECT_EQ(failed.source, service::QuoteSource::kFailed);
    EXPECT_EQ(failed.status.code(), core::StatusCode::kResourceExhausted);
    EXPECT_TRUE(failed.status.retryable());
    // Admitted, then failed: the admission decision is not the failure.
    EXPECT_EQ(failed.admission.reason, service::RejectReason::kNone);
    EXPECT_EQ(failed.outcome, nullptr);
  }
  // No broker cost leak, and the same live service serves a clean quote
  // bit-identical to the fault-free run.
  EXPECT_EQ(inflight_cost(), 0);
  const auto after = analysis_service.quote(request);
  ASSERT_EQ(after.status.code(), core::StatusCode::kOk);
  EXPECT_EQ(after.source, service::QuoteSource::kCold);
  EXPECT_TRUE(bit_identical(after.outcome->ylt, reference.outcome->ylt));
}

TEST_F(Fault, ServerReportsStructuredErrorJson) {
  auto service_ptr = make_service();
  service::Server server(*service_ptr);
  const fault::ScopedArm scoped("kernel.alloc=always");
  const std::string response = server.handle_line("QUOTE portfolio=book cache=0");
  EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"code\":\"resource-exhausted\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"retryable\":true"), std::string::npos) << response;
}

// --- Broker shutdown ---------------------------------------------------------

TEST_F(Fault, ShutdownWakesQueuedWaitersAndRejectsNewWork) {
  service::BrokerConfig config;
  config.max_inflight_cost = 100;
  service::RequestBroker broker(config);
  ASSERT_TRUE(broker.admit(100).admitted());  // saturate capacity

  service::AdmissionDecision queued_decision;
  std::thread waiter([&] { queued_decision = broker.admit(50); });
  // Wait until the waiter is parked in the queue.
  while (obs::TelemetryRegistry::global().snapshot().gauge_value("service.queued_requests") ==
         0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  broker.shutdown();
  waiter.join();
  EXPECT_EQ(queued_decision.outcome, service::AdmissionOutcome::kRejected);
  EXPECT_EQ(queued_decision.reason, service::RejectReason::kShuttingDown);

  // Later admits reject immediately; in-flight work still releases cleanly.
  EXPECT_EQ(broker.admit(1).reason, service::RejectReason::kShuttingDown);
  broker.release(100);
  EXPECT_EQ(inflight_cost(), 0);
}

// --- Concurrent chaos --------------------------------------------------------

// Intermittent faults under concurrent quoting: every response is either ok
// or a structured failure, the service stays coherent (no cost leak), and a
// final clean quote still matches a fault-free reference.
TEST_F(Fault, ConcurrentChaosLeavesTheServiceCoherent) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;

  service::QuoteRequest clean;
  clean.portfolio_id = "book";
  clean.use_cache = false;
  const auto reference = analysis_service.quote(clean);
  ASSERT_EQ(reference.status.code(), core::StatusCode::kOk);

  const fault::ScopedArm scoped("kernel.alloc=every:7");

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 4;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> served{0}, failed{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        service::QuoteRequest request;
        request.portfolio_id = "book";
        request.use_cache = false;
        const auto response = analysis_service.quote(request);
        if (response.status.ok()) {
          ASSERT_NE(response.outcome, nullptr);
          ++served;
        } else {
          EXPECT_EQ(response.source, service::QuoteSource::kFailed);
          EXPECT_NE(response.status.code(), core::StatusCode::kOk);
          EXPECT_FALSE(response.status.message().empty());
          EXPECT_EQ(response.outcome, nullptr);
          ++failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(served + failed, kThreads * kRounds);
  EXPECT_GT(failed.load(), 0u);  // the chaos actually bit
  EXPECT_EQ(inflight_cost(), 0);  // every admit was paired with a release

  fault::FaultRegistry::global().disarm_all();
  const auto after = analysis_service.quote(clean);
  ASSERT_EQ(after.status.code(), core::StatusCode::kOk);
  EXPECT_TRUE(bit_identical(after.outcome->ylt, reference.outcome->ylt));
}

}  // namespace
