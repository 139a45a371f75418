// Tests for the resident analysis service (src/service/) and the delta
// execution path it drives through the trial kernel:
//
//   - ground-up capture/replay bit-identity across engines x sinks x
//     changed layer terms x coverage windows, with zero ELT lookups and
//     zero lookup-phase time on replay (the acceptance signal);
//   - GroundUpLossCache validation (mutual exclusion, shape checks);
//   - Snapshot::diff arithmetic;
//   - ResultCache hits, LRU eviction, and portfolio invalidation;
//   - RequestBroker structured admission off the telemetry registry
//     (request-too-large, queue-full, memory pressure, queue-then-admit);
//   - AnalysisService cold -> cached -> delta flow, durable updates,
//     rejection, and concurrent quoting;
//   - concurrent core::run() hammering one borrowed pool + shared tables;
//   - the line protocol (handle_line): malformed lines answered
//     invalid-argument, a full AF_UNIX round trip, a client that vanishes
//     mid-stream, a request line past the 64 KiB cap, the connection past
//     net::kMaxConnections, and the service.socket fault site.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/trial_kernel.hpp"
#include "elt/synthetic.hpp"
#include "fault/fault_injection.hpp"
#include "io/csv.hpp"
#include "net/socket.hpp"
#include "obs/metrics_server.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "service/analysis_service.hpp"
#include "service/portfolio_session.hpp"
#include "service/request_broker.hpp"
#include "service/result_cache.hpp"
#include "service/server.hpp"
#include "shard/sharded_run.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

constexpr std::size_t kUniverse = 20'000;

class Service : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::TelemetryRegistry::global().reset();
  }
  void TearDown() override { obs::set_enabled(false); }
};

core::Portfolio make_portfolio(std::size_t num_layers = 2, std::size_t elts_per_layer = 3) {
  core::Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 200e3;
    layer.terms.occurrence_limit = 2e6;
    layer.terms.aggregate_retention = 100e3;
    layer.terms.aggregate_limit = 25e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 2'000;
      config.elt_id = l * 100 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                          elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.occurrence_retention = 5e3;
      layer_elt.terms.share = 0.8;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable make_yet(std::uint64_t trials = 500, double events = 25.0) {
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

financial::LayerTerms tweaked_terms() {
  financial::LayerTerms terms;
  terms.occurrence_retention = 500e3;
  terms.occurrence_limit = 1e6;
  terms.aggregate_retention = 0.0;
  terms.aggregate_limit = 8e6;
  return terms;
}

// --- Delta execution through the kernel ---------------------------------------

// Capture on a cold run, mutate every layer's terms (and optionally the
// window), replay from the cache, and demand byte equality with a fresh
// cold run of the mutated request — for each engine, both sinks.
TEST_F(Service, GroundUpReplayIsBitIdenticalAcrossEnginesAndSinks) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();

  for (const char* engine : {"seq", "parallel", "openmp", "fused"}) {
    core::GroundUpLossCache cache(portfolio.layers.size(), yet_table.total_events());
    {
      core::AnalysisConfig config;
      config.engine_name = engine;
      config.num_threads = 2;
      config.ground_up_capture = &cache;
      (void)core::run({portfolio, yet_table, config});
    }

    core::Portfolio mutated = portfolio;
    for (core::Layer& layer : mutated.layers) layer.terms = tweaked_terms();

    for (const bool windowed : {false, true}) {
      core::AnalysisConfig config;
      config.engine_name = engine;
      config.num_threads = 2;
      if (windowed) config.window = core::CoverageWindow{0.25f, 0.75f};

      const auto cold = core::run({mutated, yet_table, config});

      core::AnalysisConfig replay_config = config;
      replay_config.ground_up_replay = &cache;
      const auto delta = core::run({mutated, yet_table, replay_config});
      EXPECT_TRUE(bit_identical(cold, delta))
          << engine << (windowed ? " windowed" : "") << ": materialized replay differs";

      // Sharded sink: stream both to CSV and compare bytes (tiny shards so
      // several blocks cross shard boundaries).
      replay_config.output = core::OutputMode::kSharded;
      replay_config.sharding.shard_trials = 64;
      auto sharded = shard::run_sharded({mutated, yet_table, replay_config});
      std::ostringstream sharded_csv, cold_csv;
      io::write_ylt_csv(sharded_csv, sharded);
      io::write_ylt_csv(cold_csv, cold);
      EXPECT_EQ(sharded_csv.str(), cold_csv.str())
          << engine << (windowed ? " windowed" : "") << ": sharded replay differs";
    }
  }
}

TEST_F(Service, ReplaySkipsLookupAndFinancialPhasesEntirely) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();
  core::GroundUpLossCache cache(portfolio.layers.size(), yet_table.total_events());

  obs::set_enabled(true);
  core::AnalysisConfig config;
  config.engine_name = "seq";
  config.ground_up_capture = &cache;
  (void)core::run({portfolio, yet_table, config});
  // The capture runs the direct-table gathers, whose lookups the kernel
  // counts itself (they bypass lookup_many).
  const auto after_capture = obs::TelemetryRegistry::global().snapshot();
  EXPECT_GT(after_capture.counter_value("elt.direct_access.lookups"), 0u);
  EXPECT_GT(after_capture.counter_value("kernel.phase.combine_ns"), 0u);
  EXPECT_EQ(after_capture.counter_value("kernel.ground_up.captured_events"),
            yet_table.total_events());

  obs::TelemetryRegistry::global().reset();
  config.ground_up_capture = nullptr;
  config.ground_up_replay = &cache;
  (void)core::run({portfolio, yet_table, config});

  const auto after_replay = obs::TelemetryRegistry::global().snapshot();
  EXPECT_EQ(after_replay.counter_value("elt.direct_access.lookups"), 0u);
  EXPECT_EQ(after_replay.counter_value("kernel.phase.combine_ns"), 0u);
  EXPECT_EQ(after_replay.counter_value("kernel.phase.lookup_ns"), 0u);
  EXPECT_EQ(after_replay.counter_value("kernel.phase.financial_ns"), 0u);
  EXPECT_EQ(after_replay.counter_value("kernel.ground_up.replayed_events"),
            yet_table.total_events());
}

TEST_F(Service, GroundUpCacheValidation) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();
  core::GroundUpLossCache good(portfolio.layers.size(), yet_table.total_events());
  core::GroundUpLossCache bad_layers(portfolio.layers.size() + 1, yet_table.total_events());
  core::GroundUpLossCache bad_events(portfolio.layers.size(), yet_table.total_events() + 1);

  core::AnalysisConfig both;
  both.ground_up_capture = &good;
  both.ground_up_replay = &good;
  EXPECT_THROW((void)core::run({portfolio, yet_table, both}), std::invalid_argument);

  for (core::GroundUpLossCache* wrong : {&bad_layers, &bad_events}) {
    core::AnalysisConfig config;
    config.engine_name = "seq";
    config.ground_up_replay = wrong;
    EXPECT_THROW((void)core::run({portfolio, yet_table, config}), std::invalid_argument);
    config.ground_up_replay = nullptr;
    config.ground_up_capture = wrong;
    EXPECT_THROW((void)core::run({portfolio, yet_table, config}), std::invalid_argument);
  }
}

// --- Snapshot::diff ------------------------------------------------------------

TEST_F(Service, SnapshotDiffSubtractsCountersAndKeepsLaterGauges) {
  obs::Snapshot earlier;
  earlier.counters = {{"a", 10}, {"b", 5}};
  earlier.gauges = {{"g", 100}};
  earlier.histograms = {{"h", 4, 400, 50, 200}};

  obs::Snapshot later;
  later.counters = {{"a", 13}, {"b", 2}, {"c", 7}};  // b shrank (reset between)
  later.gauges = {{"g", 40}};
  later.histograms = {{"h", 6, 900, 30, 300}};

  const obs::Snapshot delta = later.diff(earlier);
  EXPECT_EQ(delta.counter_value("a"), 3u);
  EXPECT_EQ(delta.counter_value("b"), 2u);  // clamped: keeps the later value
  EXPECT_EQ(delta.counter_value("c"), 7u);  // only-in-later kept whole
  EXPECT_EQ(delta.gauge_value("g"), 40);    // point-in-time: later level stands
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 2u);
  EXPECT_EQ(delta.histograms[0].sum_ns, 500u);
  EXPECT_EQ(delta.histograms[0].min_ns, 30u);   // later extrema carry over
  EXPECT_EQ(delta.histograms[0].max_ns, 300u);
}

// --- ResultCache ---------------------------------------------------------------

TEST_F(Service, ResultCacheHitsEvictsLruAndInvalidates) {
  service::ResultCache cache(2);
  auto outcome = [](double marker) {
    auto o = std::make_shared<service::QuoteOutcome>();
    o->quotes.push_back({marker, 0, 0, 0, 0});
    return o;
  };
  cache.put(1, "a", outcome(1.0));
  cache.put(2, "b", outcome(2.0));
  ASSERT_NE(cache.get(1), nullptr);  // refreshes key 1 -> key 2 is now LRU
  cache.put(3, "a", outcome(3.0));   // evicts key 2
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.invalidate("a"), 2u);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(3), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(Service, FingerprintSeparatesFieldBoundaries) {
  service::Fingerprint a, b;
  a.mix("ab").mix("c");
  b.mix("a").mix("bc");
  EXPECT_NE(a.value(), b.value());
  service::Fingerprint c, d;
  c.mix_double(0.0);
  d.mix_double(-0.0);
  EXPECT_NE(c.value(), d.value());  // bit patterns, not numeric equality
}

// --- RequestBroker --------------------------------------------------------------

TEST_F(Service, BrokerRejectsOversizedRequestsWithStructuredReason) {
  service::BrokerConfig config;
  config.max_request_cost = 100;
  service::RequestBroker broker(config);

  const auto decision = broker.admit(101);
  EXPECT_FALSE(decision.admitted());
  EXPECT_EQ(decision.reason, service::RejectReason::kRequestCost);
  EXPECT_EQ(decision.estimated_cost, 101u);
  EXPECT_NE(decision.message.find("max_request_cost"), std::string::npos);
  EXPECT_EQ(obs::TelemetryRegistry::global().snapshot().counter_value("service.rejected"), 1u);

  EXPECT_TRUE(broker.admit(100).admitted());
  broker.release(100);
}

TEST_F(Service, BrokerQueueFullAndQueueThenAdmit) {
  service::BrokerConfig config;
  config.max_inflight_cost = 10;
  config.max_queued = 1;
  service::RequestBroker broker(config);

  ASSERT_TRUE(broker.admit(8).admitted());

  // One waiter fits the queue; it must block until release, then admit with
  // a recorded queue wait.
  std::atomic<bool> admitted{false};
  service::AdmissionDecision queued_decision;
  std::thread waiter([&] {
    queued_decision = broker.admit(8);
    admitted.store(true);
  });
  auto& registry = obs::TelemetryRegistry::global();
  while (registry.snapshot().gauge_value("service.queued_requests") == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(admitted.load());

  // Queue is now full: the next request bounces with kQueueFull.
  const auto overflow = broker.admit(8);
  EXPECT_FALSE(overflow.admitted());
  EXPECT_EQ(overflow.reason, service::RejectReason::kQueueFull);

  broker.release(8);
  waiter.join();
  EXPECT_TRUE(queued_decision.admitted());
  EXPECT_GT(queued_decision.queue_wait_seconds, 0.0);
  broker.release(8);

  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.gauge_value("service.inflight_requests"), 0);
  EXPECT_EQ(snapshot.gauge_value("service.inflight_cost"), 0);
  EXPECT_EQ(snapshot.gauge_value("service.queued_requests"), 0);
  EXPECT_EQ(snapshot.counter_value("service.queued"), 1u);
}

// --- AnalysisService -------------------------------------------------------------

// AnalysisService is intentionally non-movable (it owns mutexes and the
// resident pool), so the helper heap-allocates.
std::unique_ptr<service::AnalysisService> make_service(std::size_t cache_entries = 64) {
  service::ServiceConfig config;
  config.session.num_threads = 2;
  config.cache_entries = cache_entries;
  config.default_engine = "fused";
  auto analysis_service = std::make_unique<service::AnalysisService>(make_yet(), config);
  analysis_service->register_portfolio("book", make_portfolio());
  return analysis_service;
}

TEST_F(Service, QuoteColdThenCachedThenDelta) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;

  service::QuoteRequest request;
  request.portfolio_id = "book";
  const auto cold = analysis_service.quote(request);
  ASSERT_EQ(cold.source, service::QuoteSource::kCold);
  ASSERT_NE(cold.outcome, nullptr);
  ASSERT_FALSE(cold.outcome->quotes.empty());

  const auto cached = analysis_service.quote(request);
  EXPECT_EQ(cached.source, service::QuoteSource::kCached);
  EXPECT_EQ(cached.outcome.get(), cold.outcome.get());  // shared, not recomputed
  EXPECT_EQ(cached.fingerprint, cold.fingerprint);

  request.overrides.push_back({1, tweaked_terms()});
  const auto delta = analysis_service.quote(request);
  EXPECT_EQ(delta.source, service::QuoteSource::kDelta);
  EXPECT_NE(delta.fingerprint, cold.fingerprint);

  // Delta-aware admission: a replay performs zero ELT lookups, so the broker
  // charges the nominal per-layer unit, not the cold lookup estimate.
  EXPECT_EQ(delta.admission.estimated_cost, 2u);  // == layers.size()
  EXPECT_GT(cold.admission.estimated_cost, delta.admission.estimated_cost);

  // The delta result must be bit-identical to a forced-cold run of the same
  // request (cache and delta disabled).
  service::QuoteRequest forced = request;
  forced.use_cache = false;
  forced.use_delta = false;
  const auto reference = analysis_service.quote(forced);
  EXPECT_EQ(reference.source, service::QuoteSource::kCold);
  EXPECT_TRUE(bit_identical(reference.outcome->ylt, delta.outcome->ylt));
}

TEST_F(Service, DurableUpdateInvalidatesCacheButKeepsGroundUp) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;
  service::QuoteRequest request;
  request.portfolio_id = "book";
  ASSERT_EQ(analysis_service.quote(request).source, service::QuoteSource::kCold);
  ASSERT_EQ(analysis_service.quote(request).source, service::QuoteSource::kCached);

  analysis_service.update_layer_terms("book", 1, tweaked_terms());
  EXPECT_EQ(analysis_service.cache().size(), 0u);  // eager invalidation
  EXPECT_EQ(analysis_service.quote(request).source, service::QuoteSource::kDelta);

  // Re-registering the book changes structure: ground-up dropped, next is cold.
  analysis_service.register_portfolio("book", make_portfolio());
  EXPECT_EQ(analysis_service.quote(request).source, service::QuoteSource::kCold);
}

TEST_F(Service, QuoteRejectionIsAResponseNotAnException) {
  service::ServiceConfig config;
  config.session.num_threads = 1;
  config.broker.max_request_cost = 1;  // everything is too large
  service::AnalysisService analysis_service(make_yet(), config);
  analysis_service.register_portfolio("book", make_portfolio());

  service::QuoteRequest request;
  request.portfolio_id = "book";
  const auto response = analysis_service.quote(request);
  EXPECT_EQ(response.source, service::QuoteSource::kRejected);
  EXPECT_EQ(response.outcome, nullptr);
  EXPECT_EQ(response.admission.reason, service::RejectReason::kRequestCost);

  EXPECT_THROW((void)analysis_service.quote({.portfolio_id = "nope"}), std::invalid_argument);
}

TEST_F(Service, ConcurrentQuotesAreBitIdentical) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;
  // Warm the ground-up cache so the hammer exercises replay + cache races.
  ASSERT_EQ(analysis_service.quote({.portfolio_id = "book"}).source,
            service::QuoteSource::kCold);

  constexpr std::size_t kThreads = 8;
  std::vector<service::QuoteResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      service::QuoteRequest request;
      request.portfolio_id = "book";
      // Two distinct override sets, interleaved across threads.
      request.overrides.push_back({1, t % 2 == 0 ? tweaked_terms()
                                                 : financial::LayerTerms::cat_xl(300e3, 3e6)});
      request.use_cache = t % 3 != 0;  // mix cached and forced paths
      responses[t] = analysis_service.quote(request);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(responses[t].outcome, nullptr) << "thread " << t;
    EXPECT_NE(responses[t].source, service::QuoteSource::kRejected);
    for (std::size_t u = t + 1; u < kThreads; ++u) {
      if (t % 2 != u % 2) continue;  // different override sets
      EXPECT_TRUE(bit_identical(responses[t].outcome->ylt, responses[u].outcome->ylt))
          << "threads " << t << " and " << u << " disagree";
    }
  }
}

// Deltas quoted while another client loops forced-cold quotes run their
// launches beside the colds' on the one session pool; each must still be a
// delta and byte-equal to a one-shot sequential run of its terms.
TEST_F(Service, DeltasBesideAColdLoopMatchOneShotRuns) {
  service::ServiceConfig config;
  config.session.num_threads = 4;
  config.default_engine = "fused";
  service::AnalysisService analysis_service(make_yet(2'000), config);
  analysis_service.register_portfolio("book", make_portfolio());
  // The first quote captures the ground-up losses the deltas replay.
  ASSERT_EQ(analysis_service.quote({.portfolio_id = "book"}).source,
            service::QuoteSource::kCold);

  std::atomic<bool> deltas_done{false};
  std::atomic<int> colds{0};
  std::thread cold_loop([&] {
    service::QuoteRequest forced;
    forced.portfolio_id = "book";
    forced.use_cache = false;
    forced.use_delta = false;
    while (!deltas_done.load()) {
      if (analysis_service.quote(forced).source == service::QuoteSource::kCold) {
        colds.fetch_add(1);
      }
    }
  });
  while (colds.load() == 0) std::this_thread::yield();  // the loop is under way

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kQuotes = 6;
  const auto terms_of = [](std::size_t t, std::size_t q) {
    return financial::LayerTerms::cat_xl(100e3 + 25e3 * static_cast<double>(t * kQuotes + q),
                                         2e6);
  };
  std::vector<std::vector<service::QuoteResponse>> responses(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t q = 0; q < kQuotes; ++q) {
        service::QuoteRequest request;
        request.portfolio_id = "book";
        request.overrides.push_back({1, terms_of(t, q)});
        responses[t].push_back(analysis_service.quote(request));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  deltas_done = true;
  cold_loop.join();

  const auto yet_table = make_yet(2'000);
  core::AnalysisConfig seq;
  seq.engine_name = "seq";
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t q = 0; q < kQuotes; ++q) {
      const service::QuoteResponse& response = responses[t][q];
      ASSERT_EQ(response.source, service::QuoteSource::kDelta) << t << "/" << q;
      core::Portfolio portfolio = make_portfolio();
      portfolio.layers[0].terms = terms_of(t, q);  // layer id 1
      EXPECT_TRUE(bit_identical(core::run({portfolio, yet_table, seq}), response.outcome->ylt))
          << "delta " << t << "/" << q << " differs from its one-shot run";
    }
  }
}

// --- Concurrent core::run() on shared tables (no service involved) ---------------

TEST_F(Service, ConcurrentRunsShareOnePoolAndStayBitIdentical) {
  const auto portfolio = make_portfolio();
  const auto yet_table = make_yet();
  parallel::ThreadPool pool(4);

  core::AnalysisConfig config;
  config.engine_name = "parallel";
  const auto reference = core::run({portfolio, yet_table, config});

  constexpr std::size_t kThreads = 6;
  std::vector<core::YearLossTable> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::AnalysisConfig run_config;
      // Alternate pool-reusing engines; all submit into the one borrowed pool.
      run_config.engine_name = t % 2 == 0 ? "parallel" : "fused";
      run_config.pool = &pool;
      results[t] = core::run({portfolio, yet_table, run_config});
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(bit_identical(reference, results[t])) << "thread " << t;
  }
}

// --- Line protocol and socket ------------------------------------------------------

TEST_F(Service, HandleLineSpeaksTheProtocol) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;
  service::Server server(analysis_service, {.socket_path = "unused.sock"});

  EXPECT_EQ(server.handle_line("PING"), "{\"status\":\"ok\",\"pong\":true}");
  EXPECT_NE(server.handle_line("QUOTE").find("requires portfolio"), std::string::npos);
  // Malformed requests are the caller's to fix: invalid-argument, never
  // internal (which means a bug). Numeric fields are consumed whole: no
  // trailing text, no sign wrap (deadline-ms=-1 must not become a 2^64-1 ms
  // deadline).
  for (const char* malformed :
       {"", "BOGUS", "QUOTE", "QUOTE portfolio=nosuch", "QUOTE portfolio=book engine=bogus",
        "QUOTE portfolio=book deadline-ms=-1", "QUOTE portfolio=book layer=9 occ-limit=5",
        "QUOTE portfolio=book layer=1x", "QUOTE portfolio=book layer=-1",
        "QUOTE portfolio=book deadline-ms=10ms", "QUOTE portfolio=book window=0.25:0.75abc",
        "QUOTE portfolio=book window=0.25", "QUOTE portfolio=book occ-retention=",
        "UPDATE portfolio=book layer=2x agg-limit=9000000"}) {
    const std::string response = server.handle_line(malformed);
    EXPECT_NE(response.find("\"status\":\"error\",\"code\":\"invalid-argument\""),
              std::string::npos)
        << malformed << ": " << response;
  }

  // Each verb takes only the keys it reads, each at most once, and flags
  // only as 0, 1, false or true: a misspelt term must not quote the book's
  // own terms. The message names the key, and no quote runs.
  const auto requests = [] {
    return obs::TelemetryRegistry::global().snapshot().counter_value("service.requests");
  };
  const std::uint64_t requests_before = requests();
  for (const auto& [line, key] :
       {std::pair{"QUOTE portfolio=book occ-limt=1000000 cache=0 delta=0", "occ-limt"},
        std::pair{"QUOTE portfolio=book sharded=1", "sharded"},
        std::pair{"QUOTE portfolio=book occ-limit=1 occ-limit=2", "occ-limit"},
        std::pair{"QUOTE portfolio=book portfolio=book", "portfolio"},
        std::pair{"QUOTE portfolio=book delta=no", "delta"},
        std::pair{"QUOTE portfolio=book cache=yes", "cache"},
        std::pair{"QUOTE portfolio=book delta=", "delta"},
        std::pair{"UPDATE portfolio=book layer=1 agg-limit=9000000 engine=seq", "engine"},
        std::pair{"UPDATE portfolio=book layer=1 agg-limt=9000000", "agg-limt"},
        std::pair{"UPDATE portfolio=book layer=1 agg-limit=1 agg-limit=2", "agg-limit"}}) {
    const std::string response = server.handle_line(line);
    EXPECT_NE(response.find("\"status\":\"error\",\"code\":\"invalid-argument\""),
              std::string::npos)
        << line << ": " << response;
    EXPECT_NE(response.find(key), std::string::npos) << line << ": " << response;
  }
  EXPECT_EQ(requests(), requests_before);

  // openmp would start an OpenMP team beside the session pool: refused,
  // naming the engines that serve quotes, as a request and as the default.
  const std::string openmp = server.handle_line("QUOTE portfolio=book engine=openmp");
  EXPECT_NE(openmp.find("\"status\":\"error\",\"code\":\"invalid-argument\""),
            std::string::npos)
      << openmp;
  EXPECT_NE(openmp.find("quotes run on seq, parallel, fused"), std::string::npos) << openmp;
  service::ServiceConfig openmp_default;
  openmp_default.default_engine = "openmp";
  EXPECT_THROW(service::AnalysisService(make_yet(), openmp_default), std::invalid_argument);
  for (const char* served : {"seq", "parallel", "fused"}) {
    const std::string response = server.handle_line(
        std::string("QUOTE portfolio=book cache=0 delta=0 engine=") + served);
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
    EXPECT_NE(response.find(std::string("\"engine\":\"") + served + "\""), std::string::npos);
  }
  // Every key of both verbs, flags spelt either way.
  for (const char* line :
       {"QUOTE portfolio=book layer=1 occ-retention=200000 occ-limit=2000000 "
        "agg-retention=0 agg-limit=inf engine=fused window=0:1 cache=false delta=false "
        "deadline-ms=0",
        "QUOTE portfolio=book layer=1 occ-retention=200000 occ-limit=2000000 "
        "agg-retention=0 agg-limit=inf cache=0 delta=0",
        "UPDATE portfolio=book layer=1 occ-retention=0 occ-limit=inf agg-retention=0 "
        "agg-limit=inf"}) {
    const std::string response = server.handle_line(line);
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << line << ": " << response;
  }

  const std::string cold = server.handle_line("QUOTE portfolio=book");
  EXPECT_NE(cold.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(cold.find("\"source\":\"cold\""), std::string::npos);
  EXPECT_NE(server.handle_line("QUOTE portfolio=book").find("\"source\":\"cached\""),
            std::string::npos);

  // A terms tweak rides the delta path; UPDATE mutates durably and later
  // quotes still replay (terms-only change).
  EXPECT_NE(server
                .handle_line("QUOTE portfolio=book layer=1 occ-retention=500000 "
                             "occ-limit=1000000")
                .find("\"source\":\"delta\""),
            std::string::npos);
  EXPECT_NE(server.handle_line("UPDATE portfolio=book layer=2 agg-limit=9000000")
                .find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_NE(server.handle_line("QUOTE portfolio=book").find("\"source\":\"delta\""),
            std::string::npos);

  // Request text a message repeats comes back JSON-escaped.
  EXPECT_NE(server.handle_line("QUOTE portfolio=a\"b").find("a\\\"b"), std::string::npos);

  EXPECT_FALSE(server.stop_requested());
  EXPECT_NE(server.handle_line("SHUTDOWN").find("\"shutdown\":true"), std::string::npos);
  EXPECT_TRUE(server.stop_requested());
}

TEST_F(Service, SocketRoundTrip) {
  auto service_ptr = make_service();
  auto& analysis_service = *service_ptr;
  const std::string socket_path =
      (std::filesystem::temp_directory_path() / "are_test_service.sock").string();
  service::Server server(analysis_service, {.socket_path = socket_path});
  std::thread serving([&] { server.serve(); });
  while (!std::filesystem::exists(socket_path)) std::this_thread::yield();

  EXPECT_EQ(service::Server::round_trip(socket_path, "PING"),
            "{\"status\":\"ok\",\"pong\":true}");
  const std::string quoted = service::Server::round_trip(socket_path, "QUOTE portfolio=book");
  EXPECT_NE(quoted.find("\"source\":\"cold\""), std::string::npos);
  EXPECT_NE(service::Server::round_trip(socket_path, "SHUTDOWN").find("\"shutdown\""),
            std::string::npos);
  serving.join();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

/// serve() on its own thread, stopped and joined on every exit path.
class LiveServer {
 public:
  LiveServer(service::AnalysisService& analysis_service, const std::string& socket_name)
      : path_((std::filesystem::temp_directory_path() / socket_name).string()),
        server_(analysis_service, {.socket_path = path_}) {
    std::filesystem::remove(path_);  // a killed earlier run leaves its socket file
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~LiveServer() {
    server_.request_stop();
    thread_.join();
  }

  const std::string& path() const { return path_; }

  /// PING on a new connection; empty when nothing answers.
  std::string ping() const {
    try {
      return service::Server::round_trip(path_, "PING");
    } catch (const std::exception&) {
      return std::string();
    }
  }
  /// The first answer of a PING retried for up to 5 s while serve() binds.
  std::string await_up() const {
    std::string answer;
    for (int attempt = 0; attempt < 500 && answer.empty(); ++attempt) {
      answer = ping();
      if (answer.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return answer;
  }
  /// A raw client connection (5 s receive timeout), or -1.
  int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    const timeval timeout{5, 0};
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) != 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

 private:
  std::string path_;
  service::Server server_;
  std::thread thread_;
};

/// Sends all of `data` (or until the server drops the connection).
void send_until_closed(int fd, const std::string& data) {
  for (std::size_t sent = 0; sent < data.size();) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

/// One response line from a raw connection, newline excluded.
std::string read_reply(int fd) {
  std::string reply;
  for (char c = 0; ::read(fd, &c, 1) == 1 && c != '\n';) reply += c;
  return reply;
}

constexpr const char* kPong = "{\"status\":\"ok\",\"pong\":true}";

TEST_F(Service, ClientThatDisconnectsEarlyDoesNotKillTheServer) {
  auto service_ptr = make_service();
  const LiveServer live(*service_ptr, "are_test_service_early.sock");
  ASSERT_EQ(live.await_up(), kPong) << "server never came up";

  // 20000 PINGs, then close without reading a byte: the server's responses
  // hit a closed peer. Before send(MSG_NOSIGNAL) that write raised SIGPIPE
  // and killed this whole process.
  const int fd = live.connect();
  ASSERT_GE(fd, 0) << std::strerror(errno);
  std::string pings;
  for (int i = 0; i < 20'000; ++i) pings += "PING\n";
  send_until_closed(fd, pings);
  ::close(fd);

  // The server is still up and answers a new connection.
  EXPECT_EQ(live.ping(), kPong);
}

TEST_F(Service, OversizedRequestLineIsRejectedAndItsConnectionClosed) {
  auto service_ptr = make_service();
  const LiveServer live(*service_ptr, "are_test_service_long.sock");
  ASSERT_EQ(live.await_up(), kPong) << "server never came up";

  // 1 MiB with no newline: answered once the buffered line passes 64 KiB,
  // without the line echoed back, and the connection closed (read hits EOF
  // or the reset instead of the 5 s timeout).
  const int fd = live.connect();
  ASSERT_GE(fd, 0) << std::strerror(errno);
  send_until_closed(fd, std::string(std::size_t{1} << 20, 'x'));
  std::string response;
  char buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response,
            "{\"status\":\"error\",\"code\":\"invalid-argument\",\"retryable\":false,"
            "\"message\":\"request line exceeds 65536 bytes\"}\n");

  // A new connection is served as usual.
  EXPECT_EQ(live.ping(), kPong);
}

TEST_F(Service, ConnectionPastTheBoundIsAnsweredResourceExhausted) {
  auto service_ptr = make_service();
  const LiveServer live(*service_ptr, "are_test_service_bound.sock");
  ASSERT_EQ(live.await_up(), kPong) << "server never came up";

  std::vector<int> held;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    const int fd = live.connect();
    ASSERT_GE(fd, 0) << std::strerror(errno);
    held.push_back(fd);
    send_until_closed(fd, "PING\n");
    ASSERT_EQ(read_reply(fd), kPong) << "connection " << i << " is served";
  }
  const std::string busy = live.ping();
  EXPECT_NE(busy.find("\"status\":\"error\",\"code\":\"resource-exhausted\",\"retryable\":true"),
            std::string::npos)
      << busy;
  for (const int fd : held) ::close(fd);
}

TEST_F(Service, SocketFaultSiteDropsOneQuoteConnectionAndSparesTheScrapePort) {
  service::ServiceConfig config;
  config.session.num_threads = 2;
  config.metrics_port = 0;
  service::AnalysisService analysis_service(make_yet(), config);
  analysis_service.register_portfolio("book", make_portfolio());
  const LiveServer live(analysis_service, "are_test_service_fault.sock");
  ASSERT_EQ(live.await_up(), kPong) << "server never came up";

  const fault::ScopedArm armed("service.socket=once");
  EXPECT_THROW(service::Server::round_trip(live.path(), "PING"), std::runtime_error);
  EXPECT_EQ(live.ping(), kPong);
  EXPECT_EQ(obs::TelemetryRegistry::global().snapshot().counter_value(
                "fault.injected.service.socket"),
            1u);
  const std::string scraped =
      obs::http_get("127.0.0.1", analysis_service.metrics_server()->port(), "/metrics");
  EXPECT_NE(scraped.find("are_uptime_seconds"), std::string::npos);
}

}  // namespace
