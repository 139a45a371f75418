// pricing_desk: sequential reference quotes and the in-process service pass.
//
// The reference prices each listed set of layer terms from a sequential
// core::run and pricing::price_layer with the service's default pricing
// assumptions, rendered exactly as the serve protocol renders its "quotes"
// array, so the benchmark compares served quotes with it as strings.
//
// The in-process pass (--trace) hosts the same service `are_cli serve`
// builds from the same files and config, then times the public calls a
// served quote is made of, on the benchmark's own request lines:
// service::Server::handle_line, service::AnalysisService::quote per source,
// core::run in its cold, capture and replay configs, pricing::price_layer,
// obs::TelemetryRegistry::snapshot and the durable terms update. It also
// reads the pool balance of one cold run on a fresh pool, and the cost of
// its own timing: the handle_line sequence run bare against run timed.

#include <fstream>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "core/simd_engine.hpp"
#include "core/trial_kernel.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "pricing/pricing.hpp"
#include "service/analysis_service.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

using namespace are;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

financial::LayerTerms parse_terms(const std::string& line) {
  std::istringstream in(line);
  financial::LayerTerms terms;
  in >> terms.occurrence_retention >> terms.occurrence_limit >> terms.aggregate_retention >>
      terms.aggregate_limit;
  if (!in) throw std::runtime_error("terms line needs four numbers: '" + line + "'");
  terms.validate();
  return terms;
}

/// The "quotes" array of a serve response for a one-layer book.
std::string quotes_json(const pricing::Quote& quote) {
  return "[" + Json()
                   .num("layer", 1)
                   .num("expected_loss", quote.expected_loss)
                   .num("stddev", quote.stddev)
                   .num("tvar", quote.tvar)
                   .num("technical_premium", quote.technical_premium)
                   .num("rate_on_line", quote.rate_on_line)
                   .done() +
         "]";
}

std::string source_of(const std::string& response) {
  const std::string key = "\"source\":\"";
  const std::size_t at = response.find(key);
  if (at == std::string::npos) return response.find("\"updated\"") != std::string::npos ? "update" : "other";
  const std::size_t begin = at + key.size();
  return response.substr(begin, response.find('"', begin) - begin);
}

template <typename Body>
double time_ms(Body body) {
  const auto start = Clock::now();
  body();
  return seconds_since(start) * 1e3;
}

core::AnalysisConfig fused_config(parallel::ThreadPool& pool) {
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.engine_name = "fused";
  config.pool = &pool;
  return config;
}

/// Server::handle_line over the request sequence, on a fresh service as
/// `are_cli serve` builds it with its default flags. Timed as a whole, and
/// with `timed` also per call, filed by response source.
struct LinePass {
  double wall_s = 0.0;
  std::map<std::string, std::vector<double>> handle_us;
  std::vector<double> response_bytes;
};

LinePass handle_lines(const yet::YearEventTable& yet_table, const core::Portfolio& portfolio,
                      const std::vector<std::string>& requests, bool timed) {
  service::AnalysisService service(yet_table, service::ServiceConfig{});
  service.register_portfolio("book", portfolio);
  service::Server server(service);
  LinePass pass;
  const auto start = Clock::now();
  for (const std::string& line : requests) {
    if (!timed) {
      server.handle_line(line);
      continue;
    }
    std::string response;
    const double ms = time_ms([&] { response = server.handle_line(line); });
    pass.handle_us[source_of(response)].push_back(ms * 1e3);
    if (line.rfind("QUOTE", 0) == 0) pass.response_bytes.push_back(static_cast<double>(response.size()));
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

std::string in_process_pass(const yet::YearEventTable& yet_table,
                            const core::Portfolio& portfolio,
                            const std::vector<std::string>& requests,
                            const std::vector<financial::LayerTerms>& fresh_terms) {
  obs::set_enabled(true);  // as `are_cli serve` runs
  Json out;

  // Pool balance of one cold run on a fresh pool of the session's size. The
  // registry keeps the task-time maximum over the process's life, so this
  // run is the first pool work recorded here and the maximum is its own.
  {
    parallel::ThreadPool pool;
    const obs::Snapshot before = obs::TelemetryRegistry::global().snapshot();
    core::run({portfolio, yet_table, fused_config(pool)});
    const obs::Snapshot diff = obs::TelemetryRegistry::global().snapshot().diff(before);
    for (const auto& histogram : diff.histograms) {
      if (histogram.name != "pool.task_ns") continue;
      out.num("pool_task_count", static_cast<double>(histogram.count))
          .num("pool_task_sum_ns", static_cast<double>(histogram.sum_ns))
          .num("pool_task_max_ns", static_cast<double>(histogram.max_ns));
    }
    out.num("pool_idle_ns", static_cast<double>(diff.counter_value("pool.idle_ns")));
  }

  // The request sequence bare, timed per call, and bare again: the timed
  // pass gives handle_line by source, the difference its overhead.
  const LinePass bare_first = handle_lines(yet_table, portfolio, requests, false);
  const LinePass timed = handle_lines(yet_table, portfolio, requests, true);
  const LinePass bare_second = handle_lines(yet_table, portfolio, requests, false);
  out.num("lines_bare_s", (bare_first.wall_s + bare_second.wall_s) / 2)
      .num("lines_timed_s", timed.wall_s);

  service::AnalysisService service(yet_table, service::ServiceConfig{});
  service.register_portfolio("book", portfolio);

  // AnalysisService::quote by source. Each round ends with a durable
  // update, which drops the cached quotes, so the next round's first quote
  // of the same terms is a delta again.
  constexpr int kRounds = 5;
  std::vector<double> cold_ms, delta_ms, cached_ms, price_ms, snapshot_us, update_ms;
  for (int round = 0; round < kRounds; ++round) {
    for (const financial::LayerTerms& terms : fresh_terms) {
      service::QuoteRequest request;
      request.portfolio_id = "book";
      request.overrides.push_back({1, terms});
      delta_ms.push_back(time_ms([&] { service.quote(request); }));
      cached_ms.push_back(time_ms([&] { service.quote(request); }));
      service::QuoteRequest cold = request;
      cold.use_cache = false;
      cold.use_delta = false;
      service::QuoteResponse response;
      cold_ms.push_back(time_ms([&] { response = service.quote(cold); }));
      if (response.outcome != nullptr) {
        price_ms.push_back(time_ms([&] {
          pricing::price_layer(response.outcome->ylt.layer_losses(0), terms,
                               service.config().assumptions);
        }));
      }
      snapshot_us.push_back(time_ms([] { obs::TelemetryRegistry::global().snapshot(); }) * 1e3);
      update_ms.push_back(time_ms([&] { service.update_layer_terms("book", 1, terms); }));
    }
  }

  // core::run in the three configs a served quote uses, on the session pool.
  std::vector<double> run_cold_ms, capture_ms, replay_ms;
  for (std::size_t i = 0; i < kRounds * fresh_terms.size(); ++i) {
    const core::AnalysisConfig config = fused_config(service.session().pool());
    run_cold_ms.push_back(time_ms([&] { core::run({portfolio, yet_table, config}); }));
    core::GroundUpLossCache cache(portfolio.layers.size(), yet_table.total_events());
    core::AnalysisConfig capture = config;
    capture.ground_up_capture = &cache;
    capture_ms.push_back(time_ms([&] { core::run({portfolio, yet_table, capture}); }));
    core::AnalysisConfig replay = config;
    replay.ground_up_replay = &cache;
    replay_ms.push_back(time_ms([&] { core::run({portfolio, yet_table, replay}); }));
  }
  obs::set_enabled(false);

  for (const auto& [source, values] : timed.handle_us) {
    out.num("handle_line_us." + source, median(values))
        .num("handle_line_n." + source, static_cast<double>(values.size()));
  }
  out.num("response_bytes", median(timed.response_bytes))
      .num("quote_ms.cold", median(cold_ms))
      .num("quote_ms.delta", median(delta_ms))
      .num("quote_ms.cached", median(cached_ms))
      .num("price_ms", median(price_ms))
      .num("snapshot_us", median(snapshot_us))
      .num("update_ms", median(update_ms))
      .num("run_cold_ms", median(run_cold_ms))
      .num("capture_ms", median(capture_ms))
      .num("replay_ms", median(replay_ms))
      .num("samples", static_cast<double>(kRounds * fresh_terms.size()));
  return out.done();
}

}  // namespace

int cmd_desk(const Options& options) {
  const auto catalog_size = static_cast<std::size_t>(options.number("catalog-size", 0));
  const std::vector<std::string>& elt_paths = options.positional();
  if (elt_paths.empty()) throw std::runtime_error("no ELT files given");
  // The loads `are_cli serve` makes at startup, timed.
  auto start = Clock::now();
  const yet::YearEventTable yet_table = load_yet(options.require("yet"));
  const double read_yet_s = seconds_since(start);
  start = Clock::now();
  std::vector<elt::EventLossTable> tables;
  for (const std::string& path : elt_paths) tables.push_back(load_elt(path));
  const double read_elt_s = seconds_since(start);
  start = Clock::now();
  const core::Portfolio portfolio = make_portfolio(tables, catalog_size);
  const double build_s = seconds_since(start);

  std::vector<financial::LayerTerms> terms_list;
  std::string reference = "[";
  for (const std::string& line : read_lines(options.require("terms"))) {
    const financial::LayerTerms terms = parse_terms(line);
    terms_list.push_back(terms);
    core::Portfolio priced = portfolio;
    priced.layers[0].terms = terms;
    core::AnalysisConfig seq;
    seq.engine = core::EngineKind::kSequential;
    seq.engine_name = "seq";
    seq.num_threads = 1;
    const core::YearLossTable ylt = core::run({priced, yet_table, seq});
    const pricing::Quote quote =
        pricing::price_layer(ylt.layer_losses(0), terms, pricing::PricingAssumptions{});
    if (reference.size() > 1) reference += ',';
    reference += Json().str("terms", line).str("quotes", quotes_json(quote)).done();
  }
  reference += "]";

  std::size_t table_bytes = 0;
  for (const auto& layer_elt : portfolio.layers[0].elts) table_bytes += layer_elt.lookup->memory_bytes();
  const core::SimdResolution kauto =
      core::resolve_simd_extension_ex(portfolio, {0, core::SimdExtension::kAuto});
  Json out;
  if (options.has("gather-per-s")) {
    out.num("predicted_s", predict_kernel_seconds(portfolio, yet_table, options));
  }
  out.raw("reference", reference)
      .num("read_yet_s", read_yet_s)
      .num("read_elt_s", read_elt_s)
      .num("build_s", build_s)
      .num("elts_loaded", static_cast<double>(tables.size()))
      .num("trials", static_cast<double>(yet_table.num_trials()))
      .num("occurrences", static_cast<double>(yet_table.total_events()))
      .num("yet_mb", static_cast<double>(yet_table.memory_bytes()) / 1e6)
      .num("table_mb", static_cast<double>(table_bytes) / 1e6)
      .str("engine", "fused")
      .num("threads", std::max(1u, std::thread::hardware_concurrency()))
      .str("kauto_extension", std::string(core::to_string(kauto.extension)))
      .str("kauto_note", kauto.note);
  if (options.has("trace")) {
    out.raw("in_process", in_process_pass(yet_table, portfolio,
                                          read_lines(options.require("requests")), terms_list));
  }
  std::cout << out.done() << "\n";
  return 0;
}

}  // namespace perfbench
