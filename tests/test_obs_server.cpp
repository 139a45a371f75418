// Tests for the service observability plane (PR 9):
//
//   - obs::Histogram bucket bounds and Snapshot quantile arithmetic (the
//     numbers behind the /metrics histogram families and p* gauges);
//   - live GET /metrics over a real socket while concurrent quotes run:
//     per-source service.quote_ns families, cumulative bucket invariants,
//     one TYPE line per family, uptime and broker-budget gauges;
//   - /healthz liveness flip on broker shutdown, /statusz JSON content
//     (build info, quote counts, armed fault sites, embedder fragment),
//     404 for unknown paths;
//   - the JSONL access log: exactly one line per quote — served, cached,
//     fault-injected (kernel.alloc=once) and broker-rejected alike — with
//     the documented schema, and the --verbose human line rendered from
//     the same entry;
//   - request-id correlation: the id on the wire response appears in the
//     Chrome trace exactly twice per quote (span 'B' args + 'i' instant);
//   - the zero-cost contract: served CSV bytes identical with telemetry
//     on and a scraper hammering /metrics mid-quote;
//   - an idle TCP client delays neither a scrape nor stop().
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "fault/fault_injection.hpp"
#include "io/csv.hpp"
#include "obs/export.hpp"
#include "obs/metrics_server.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "service/access_log.hpp"
#include "service/analysis_service.hpp"
#include "service/request_broker.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

constexpr std::size_t kUniverse = 20'000;

class ObsServer : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::TelemetryRegistry::global().reset();
    obs::TraceBuffer::global().clear();
    fault::FaultRegistry::global().disarm_all();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    fault::FaultRegistry::global().disarm_all();
  }
};

core::Portfolio make_portfolio(std::size_t num_layers = 2, std::size_t elts_per_layer = 2) {
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

yet::YearEventTable make_yet(std::uint64_t trials = 300, double events = 20.0) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 2012;
  return yet::generate_uniform_yet(config, kUniverse);
}

/// A quote whose fingerprint is unique per (salt): layer-1 terms override
/// varies with the salt. Delta replay is disabled so every distinct salt
/// takes the cold path (terms-only tweaks would otherwise ride the
/// ground-up replay once a cold run captures — covered by test_service).
service::QuoteRequest salted_request(std::uint64_t salt) {
  service::QuoteRequest request;
  request.portfolio_id = "book";
  request.use_delta = false;
  service::TermsOverride override_terms;
  override_terms.layer_id = 1;
  override_terms.terms.occurrence_retention = 100e3 + 1e3 * static_cast<double>(salt);
  override_terms.terms.occurrence_limit = 1.5e6;
  override_terms.terms.aggregate_retention = 0.0;
  override_terms.terms.aggregate_limit = 20e6;
  request.overrides.push_back(override_terms);
  return request;
}

/// Value of one exposition series (full name incl. labels), or -1 when the
/// series line is absent.
double series_value(const std::string& exposition, const std::string& series) {
  const std::string text = "\n" + exposition;
  const std::string needle = "\n" + series + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + needle.size()));
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

std::string unique_temp_path(const std::string& stem) {
  const auto path = std::filesystem::temp_directory_path() /
                    (stem + "." + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(path);
  return path.string();
}

// --- Histogram arithmetic -----------------------------------------------------

TEST_F(ObsServer, HistogramBucketBoundsAndQuantileArithmetic) {
  // Power-of-two bounds: bucket b covers [2^(b-1), 2^b - 1], bucket 0 is
  // exactly {0} — the le= bounds of the Prometheus exposition.
  EXPECT_EQ(obs::Histogram::bucket_lower_ns(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper_ns(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lower_ns(6), 32u);
  EXPECT_EQ(obs::Histogram::bucket_upper_ns(6), 63u);
  EXPECT_EQ(obs::Histogram::bucket_lower_ns(7), 64u);
  EXPECT_EQ(obs::Histogram::bucket_upper_ns(7), 127u);

  obs::TelemetryRegistry registry;
  obs::Histogram& histogram = registry.histogram("t.ns");
  histogram.record_ns(50);
  histogram.record_ns(100);
  const obs::Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& sample = snapshot.histograms.front();
  EXPECT_EQ(sample.buckets[6], 1u);  // 50 in [32, 63]
  EXPECT_EQ(sample.buckets[7], 1u);  // 100 in [64, 127]

  // p50 interpolates to the top of the first sample's bucket; p95/p99
  // interpolate into [64, 127] with the upper bound clamped to the
  // observed max (100); the extremes clamp to min/max.
  EXPECT_EQ(sample.quantile_ns(0.50), 63u);
  EXPECT_EQ(sample.quantile_ns(0.95), 96u);
  EXPECT_EQ(sample.quantile_ns(0.99), 99u);
  EXPECT_EQ(sample.quantile_ns(0.0), 50u);
  EXPECT_EQ(sample.quantile_ns(1.0), 100u);

  // A single sample pins every quantile to itself (min == max clamping).
  obs::Histogram& single = registry.histogram("single.ns");
  single.record_ns(700);
  const obs::Snapshot snapshot2 = registry.snapshot();
  for (const auto& h : snapshot2.histograms) {
    if (h.name != "single.ns") continue;
    for (const double q : {0.0, 0.5, 0.95, 1.0}) {
      EXPECT_EQ(h.quantile_ns(q), 700u) << q;
    }
  }
}

// --- The scrape endpoint against a live service -------------------------------

TEST_F(ObsServer, MetricsEndpointServesLiveHistogramsOverHttp) {
  obs::set_enabled(true);
  service::ServiceConfig config;
  config.metrics_port = 0;  // ephemeral
  service::AnalysisService analysis_service(make_yet(), config);
  analysis_service.register_portfolio("book", make_portfolio());
  ASSERT_NE(analysis_service.metrics_server(), nullptr);
  const int port = analysis_service.metrics_server()->port();
  ASSERT_GT(port, 0);

  // Concurrent quoting: 4 threads x 2 distinct cold quotes each.
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&analysis_service, t] {
      for (std::uint64_t i = 0; i < 2; ++i) {
        const auto response = analysis_service.quote(salted_request(t * 10 + i));
        ASSERT_EQ(response.source, service::QuoteSource::kCold);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // One more cold + its cache hit from this thread.
  ASSERT_EQ(analysis_service.quote(salted_request(99)).source, service::QuoteSource::kCold);
  ASSERT_EQ(analysis_service.quote(salted_request(99)).source, service::QuoteSource::kCached);

  const std::string text = obs::http_get("127.0.0.1", port, "/metrics");
  EXPECT_EQ(series_value(text, "are_service_requests_total"), 10.0);
  EXPECT_EQ(series_value(text, "are_service_quote_ns_count{source=\"cold\"}"), 9.0);
  EXPECT_EQ(series_value(text, "are_service_quote_ns_count{source=\"cached\"}"), 1.0);
  EXPECT_GT(series_value(text, "are_service_quote_ns_p50_ns{source=\"cold\"}"), 0.0);
  EXPECT_GE(series_value(text, "are_uptime_seconds"), 0.0);
  EXPECT_GE(series_value(text, "are_service_inflight_cost_budget"), 0.0);

  // One TYPE line covers all labelled members of the quote_ns family.
  EXPECT_EQ(count_occurrences(text, "# TYPE are_service_quote_ns histogram"), 1u);

  // Histogram invariants on the live exposition: the cold family's bucket
  // values are cumulative non-decreasing and +Inf equals _count.
  std::vector<double> buckets;
  const std::string prefix = "are_service_quote_ns_bucket{source=\"cold\",le=\"";
  std::istringstream lines(text);
  std::string line;
  bool saw_inf = false;
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    buckets.push_back(std::stod(line.substr(line.rfind(' ') + 1)));
    saw_inf = line.find("le=\"+Inf\"") != std::string::npos;
  }
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_TRUE(saw_inf) << "last cold bucket line must be le=\"+Inf\"";
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1], buckets[i]) << "bucket counts must be cumulative";
  }
  EXPECT_EQ(buckets.back(), 9.0);
}

TEST_F(ObsServer, HealthzStatuszAndUnknownPaths) {
  obs::set_enabled(true);
  service::ServiceConfig config;
  config.metrics_port = 0;
  service::AnalysisService analysis_service(make_yet(), config);
  analysis_service.register_portfolio("book", make_portfolio());
  (void)analysis_service.quote(salted_request(1));
  obs::MetricsServer* server = analysis_service.metrics_server();
  ASSERT_NE(server, nullptr);

  const std::string healthz = server->handle_path("/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok\n"), std::string::npos);

  {
    const fault::ScopedArm scoped("kernel.alloc=never,io.read=always");
    const std::string statusz = server->handle_path("/statusz");
    EXPECT_NE(statusz.find("\"build\""), std::string::npos);
    EXPECT_NE(statusz.find("\"uptime_seconds\""), std::string::npos);
    EXPECT_NE(statusz.find("\"requests\":1"), std::string::npos);
    EXPECT_NE(statusz.find("\"cold\":1"), std::string::npos);
    EXPECT_NE(statusz.find("\"io.read\""), std::string::npos) << "armed site must be listed";
    EXPECT_NE(statusz.find("\"default_engine\":\"fused\""), std::string::npos)
        << "embedder fragment must be merged";
  }

  EXPECT_NE(server->handle_path("/nope").find("404"), std::string::npos);

  // Liveness flips once the broker starts draining.
  analysis_service.broker().shutdown();
  const std::string draining = server->handle_path("/healthz");
  EXPECT_NE(draining.find("503"), std::string::npos);
  EXPECT_NE(draining.find("shutting-down"), std::string::npos);
}

// --- The access log -----------------------------------------------------------

TEST_F(ObsServer, AccessLogWritesOneJsonLinePerQuote) {
  obs::set_enabled(true);
  const std::string log_path = unique_temp_path("are_obs_access");
  {
    service::ServiceConfig config;
    config.access_log_path = log_path;
    service::AnalysisService analysis_service(make_yet(), config);
    analysis_service.register_portfolio("book", make_portfolio());
    ASSERT_NE(analysis_service.access_log(), nullptr);

    ASSERT_EQ(analysis_service.quote(salted_request(1)).source, service::QuoteSource::kCold);
    ASSERT_EQ(analysis_service.quote(salted_request(1)).source, service::QuoteSource::kCached);

    // A fault-injected failure still logs — chaos runs are self-describing.
    const fault::ScopedArm scoped("kernel.alloc=once");
    auto faulted = salted_request(2);
    faulted.use_cache = false;
    const auto failed = analysis_service.quote(faulted);
    ASSERT_EQ(failed.source, service::QuoteSource::kFailed);
  }

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(log, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << "exactly one line per quote";

  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key :
         {"\"request_id\":\"q-", "\"portfolio\":\"book\"", "\"source\":", "\"status\":",
          "\"code\":", "\"engine\":", "\"fingerprint\":", "\"admission\":", "\"reason\":",
          "\"queue_wait_seconds\":", "\"deadline_ms\":", "\"wall_ns\":", "\"elt_lookups\":",
          "\"fault_fires\":{"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " missing in: " << line;
    }
  }
  EXPECT_NE(lines[0].find("\"request_id\":\"q-000001\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"source\":\"cold\""), std::string::npos);
  // The cold run gathers from direct tables, and the kernel counts those
  // lookups itself: every ELT (2 layers x 2) reads every YET occurrence.
  EXPECT_NE(lines[0].find("\"elt_lookups\":" + std::to_string(4 * make_yet().total_events()) +
                          ","),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"fault_fires\":{}"), std::string::npos);
  EXPECT_NE(lines[1].find("\"source\":\"cached\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"source\":\"failed\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"fault_fires\":{\"kernel.alloc\":1}"), std::string::npos);
  std::filesystem::remove(log_path);
}

TEST_F(ObsServer, AccessLogRecordsBrokerRejections) {
  obs::set_enabled(true);
  const std::string log_path = unique_temp_path("are_obs_reject");
  {
    service::ServiceConfig config;
    config.access_log_path = log_path;
    config.broker.max_request_cost = 1;  // every real quote is too large
    service::AnalysisService analysis_service(make_yet(), config);
    analysis_service.register_portfolio("book", make_portfolio());
    const auto response = analysis_service.quote(salted_request(1));
    ASSERT_EQ(response.source, service::QuoteSource::kRejected);

    // The --verbose stderr line renders from the SAME entry as the log.
    const auto entry = service::make_log_entry(salted_request(1), response);
    const std::string human = service::access_log_human(entry);
    EXPECT_EQ(human.compare(0, 8, "[serve] "), 0);
    EXPECT_NE(human.find(response.request_id), std::string::npos);
    EXPECT_NE(human.find("source=rejected"), std::string::npos);
  }

  std::ifstream log(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(log, line));
  EXPECT_NE(line.find("\"source\":\"rejected\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"rejected\""), std::string::npos);
  EXPECT_NE(line.find("\"admission\":\"rejected\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"request-too-large\""), std::string::npos);
  EXPECT_FALSE(std::getline(log, line)) << "rejections log exactly one line";
  std::filesystem::remove(log_path);
}

// --- Request-id correlation ---------------------------------------------------

TEST_F(ObsServer, RequestIdsCorrelateResponseAndTrace) {
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  service::AnalysisService analysis_service(make_yet());
  analysis_service.register_portfolio("book", make_portfolio());

  const auto first = analysis_service.quote(salted_request(1));
  const auto second = analysis_service.quote(salted_request(2));
  EXPECT_EQ(first.request_id, "q-000001");
  EXPECT_EQ(second.request_id, "q-000002");

  std::ostringstream trace;
  obs::TraceBuffer::global().write_chrome_json(trace);
  const std::string json = trace.str();
  // Each id appears exactly twice: the service.quote span's 'B' args and
  // the service.quote.done instant event.
  EXPECT_EQ(count_occurrences(json, "q-000001"), 2u);
  EXPECT_EQ(count_occurrences(json, "q-000002"), 2u);
  EXPECT_NE(json.find("\"name\":\"service.quote.done\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

// --- The zero-cost contract under scraping ------------------------------------

TEST_F(ObsServer, ServedCsvBytesIdenticalWithMetricsServerScraping) {
  // Baseline: telemetry off, no metrics server.
  std::string baseline_csv;
  {
    service::AnalysisService analysis_service(make_yet());
    analysis_service.register_portfolio("book", make_portfolio());
    const auto response = analysis_service.quote(salted_request(7));
    ASSERT_EQ(response.source, service::QuoteSource::kCold);
    std::ostringstream csv;
    io::write_ylt_csv(csv, response.outcome->ylt);
    baseline_csv = csv.str();
  }

  // Instrumented: telemetry on, metrics server up, a scraper hammering
  // /metrics concurrently with the quote.
  obs::TelemetryRegistry::global().reset();
  obs::set_enabled(true);
  service::ServiceConfig config;
  config.metrics_port = 0;
  service::AnalysisService analysis_service(make_yet(), config);
  analysis_service.register_portfolio("book", make_portfolio());
  const int port = analysis_service.metrics_server()->port();
  std::atomic<bool> done{false};
  std::thread scraper([&done, port] {
    while (!done.load()) {
      const std::string text = obs::http_get("127.0.0.1", port, "/metrics");
      ASSERT_FALSE(text.empty());
    }
  });
  const auto response = analysis_service.quote(salted_request(7));
  done.store(true);
  scraper.join();
  ASSERT_EQ(response.source, service::QuoteSource::kCold);
  std::ostringstream csv;
  io::write_ylt_csv(csv, response.outcome->ylt);
  EXPECT_EQ(csv.str(), baseline_csv) << "scraping must not perturb served bytes";
}

// --- The front door ------------------------------------------------------------

TEST_F(ObsServer, IdleClientDelaysNeitherScrapeNorStop) {
  obs::MetricsServer server;
  server.start();
  // A client that connects and sends nothing. The watchdog hangs it up
  // after 3 s, so a server that waits on it fails the timing checks below
  // rather than hanging the test.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(idle, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::atomic<bool> finished{false};
  std::thread watchdog([&finished, idle] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::shutdown(idle, SHUT_RDWR);
  });

  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(obs::http_get("127.0.0.1", server.port(), "/healthz"), "ok\n");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "the scrape waited on the idle client";

  start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "stop() waited on the idle client";
  EXPECT_FALSE(server.running());

  finished.store(true);
  watchdog.join();
  ::close(idle);
}

}  // namespace
