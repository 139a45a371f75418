// are_cli — command-line front end for the aggregate risk analysis engine.
//
// Subcommands cover the whole pipeline so analyses can be scripted and the
// bulky inputs cached on disk (binary formats with checksums):
//
//   are_cli gen-elt   --out book.elt   [--catalog-size N --entries N --seed S]
//   are_cli gen-elt-catmodel --out book.elt [--events N --sites N --seed S]
//   are_cli gen-yet   --out years.yet  [--trials N --events N --model fixed|poisson|negbin]
//   are_cli run       --yet years.yet --elt a.elt [--elt b.elt ...] [terms...] --out ylt.csv
//   are_cli report    --yet years.yet --elt a.elt ... [terms...]     (EP table to stdout)
//   are_cli price     --yet years.yet --elt a.elt ... [terms...]     (quote to stdout)
//   are_cli info      --yet years.yet | --elt book.elt ...           (describe files)
//   are_cli simd-info [--runnable]   (runtime SIMD dispatch facts for this host)
//   are_cli list-engines [--names]   (dump the engine table)
//   are_cli serve     --yet years.yet --elt a.elt ... [terms...] --socket are.sock
//                     (resident analysis service on an AF_UNIX socket; loads the
//                     inputs once, then answers QUOTE/UPDATE lines with admission
//                     control, result caching, and delta re-pricing)
//   are_cli quote     --socket are.sock [terms...] [--csv ylt.csv] [--shutdown]
//                     (client for a running serve; prints the JSON response line)
//   are_cli top       --connect 127.0.0.1:9464 [--interval-ms N] [--iterations N]
//                     (refreshing operator dashboard polled from a serve's
//                     --metrics-port HTTP endpoint: QPS, per-source latency
//                     quantiles, inflight vs budget, cache, faults)
//
// Layer terms: --occ-retention --occ-limit --agg-retention --agg-limit
// Engine:      --engine seq|parallel|fused (the kernel's three schedules)
//              --threads N
// Knobs (every engine): --chunk N (events staged per chunk; 0 = whole block)
//              --tile N (trials per kernel block; 0 = footprint heuristic)
//              --simd-ext auto|scalar|sse2|avx2|avx512|neon (seq: auto = scalar)
//              --window FROM:TO (fractions of the year)
//              --lookup direct|sorted|robinhood|cuckoo
// Output:      --output materialized|sharded — sharded stores the YLT in
//              trial-range shards that spill to disk under a memory budget
//              (out-of-core), with --shard-trials N --spill-dir PATH
//              --memory-budget-mb M
// Telemetry:   --telemetry json|csv|prom|trace [--telemetry-out PATH]
//              (runtime counters / Chrome-trace spans from src/obs/, exported
//              after the command finishes; default destination stderr)
//              --verbose (human summaries rendered from the telemetry registry,
//              among them the direct tables' bytes on 2 MiB pages)
//              --phases (run|report|price: the Fig-6b phase table and access
//              counts, rendered from the registry's kernel.phase.* counters)
//
// Engine selection goes through core::run(AnalysisRequest) and the
// EngineRegistry by name — this file has no per-engine dispatch ladder.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "args.hpp"
#include "inputs.hpp"
#include "catmodel/cat_model.hpp"
#include "core/analysis.hpp"
#include "core/engine_registry.hpp"
#include "fault/fault_injection.hpp"
#include "obs/export.hpp"
#include "obs/metrics_server.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "elt/synthetic.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "metrics/convergence.hpp"
#include "metrics/ep_curve.hpp"
#include "metrics/sharded_reduce.hpp"
#include "pricing/pricing.hpp"
#include "service/analysis_service.hpp"
#include "service/server.hpp"
#include "shard/sharded_run.hpp"
#include "simd/dispatch.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using tools::Args;
using tools::load_yet;

int usage() {
  std::cerr <<
      R"(usage: are_cli <command> [options]

commands:
  gen-elt            synthesize an Event Loss Table      (--out FILE)
  gen-elt-catmodel   run the catastrophe model to an ELT (--out FILE)
  gen-yet            pre-simulate a Year Event Table     (--out FILE)
  run                aggregate analysis -> YLT CSV       (--yet F --elt F... --out FILE)
  report             aggregate analysis -> EP table      (--yet F --elt F...)
  price              aggregate analysis -> layer quote   (--yet F --elt F...)
  info               describe .yet/.elt binary files     (--yet F | --elt F...)
  simd-info          runtime SIMD dispatch facts: cpuid-detected, compiled-in,
                     and chosen extensions (--runnable: one runnable extension
                     per line, machine-readable — what CI override loops use)
  list-engines       dump the engine table               (--names: one name per line)
  serve              resident analysis service           (--yet F --elt F... --socket PATH)
                     --portfolio NAME (book id, default 'book') --threads N
                     --max-request-cost N --max-inflight-cost N --queue-limit N
                     --ground-up-budget-mb M --cache-entries N
                     --engine NAME (default engine, default fused)
                     --verbose (per-request lines + shutdown summary to stderr)
                     --metrics-port N (HTTP /metrics /healthz /statusz; 0 = ephemeral)
                     --metrics-bind ADDR (default 127.0.0.1)
                     --access-log PATH (JSONL, one line per quote)
                     --trace-out PATH (Chrome-trace JSON written at shutdown;
                     request ids ride on service.quote spans + instant events)
  top                live operator view of a running serve's metrics endpoint
                     --connect HOST:PORT (default 127.0.0.1:9464)
                     --interval-ms N (default 1000) --iterations N (0 = forever)
                     --no-clear (append refreshes instead of redrawing)
  quote              client for a running serve          (--socket PATH [terms...])
                     --portfolio NAME --layer N --engine NAME --window FROM:TO
                     --csv PATH (server-side YLT CSV) --no-cache --no-delta
                     --deadline-ms N (bound wall clock)
                     --retries N --retry-base-ms M (exponential backoff + jitter on
                     retryable failures and connect errors)
                     --ping --shutdown; prints the JSON response, exit 0 iff ok

common options:
  layer terms   --occ-retention X --occ-limit X --agg-retention X --agg-limit X
  engine        --engine seq|parallel|fused (default parallel; fused for
                --output sharded) --threads N
  knobs         (every engine) --chunk N (events staged per chunk; 0 = whole block)
                --tile N (trials per kernel block; 0 = auto heuristic)
                --simd-ext auto|scalar|sse2|avx2|avx512|neon (lane type; seq
                runs scalar under auto)
                --window FROM:TO  (fractions of the year)
  lookup        --lookup direct|sorted|robinhood|cuckoo
  output        --output materialized|sharded  (run, report; sharded = out-of-core YLT)
                --shard-trials N --spill-dir PATH --memory-budget-mb M (0 = unlimited)
  telemetry     --telemetry json|csv|prom|trace  (runtime counters / trace spans,
                exported after the run; Chrome-trace JSON loads in chrome://tracing)
                --telemetry-out PATH  (default: stderr)
                --verbose  (human-readable summaries from the telemetry registry)
                --phases  (run/report/price: Fig-6b phase table + access counts
                to stderr, from the kernel.phase.* counters every telemetered
                run records)
  faults        --fault SITE=SPEC[,SITE=SPEC...]  (arm fault-injection sites for
                this process; SPEC = always|never|once|every:N|after:N|prob:P[:SEED];
                the ARE_FAULT env var takes the same list — see README "Failure model")
  run 'are_cli <command> --help' is not needed: every option has a default.
)";
  return 2;
}

financial::LayerTerms parse_terms(const Args& args) {
  financial::LayerTerms terms;
  terms.occurrence_retention = args.get_double("occ-retention", 0.0);
  terms.occurrence_limit = args.get_double("occ-limit", financial::kUnlimited);
  terms.aggregate_retention = args.get_double("agg-retention", 0.0);
  terms.aggregate_limit = args.get_double("agg-limit", financial::kUnlimited);
  terms.validate();
  return terms;
}

elt::LookupKind parse_lookup(const Args& args) {
  const std::string name = args.get("lookup", "direct");
  if (name == "direct") return elt::LookupKind::kDirectAccess;
  if (name == "sorted") return elt::LookupKind::kSortedVector;
  if (name == "robinhood") return elt::LookupKind::kRobinHood;
  if (name == "cuckoo") return elt::LookupKind::kCuckoo;
  throw std::runtime_error("unknown --lookup '" + name + "'");
}

core::Portfolio build_portfolio(const Args& args, std::size_t catalog_size) {
  const financial::LayerTerms terms = parse_terms(args);
  const elt::LookupKind kind = parse_lookup(args);
  const double share = args.get_double("share", 1.0);
  return tools::build_portfolio(tools::elt_paths(args), kind, catalog_size, terms, share);
}

/// Builds the AnalysisConfig from the command line. Engine names resolve
/// through the registry, so `--engine` accepts exactly what list-engines
/// prints.
core::AnalysisConfig parse_engine_config(const Args& args) {
  core::AnalysisConfig config;
  // Sharded output defaults to fused (its costed schedule keeps blocks
  // balanced by events while they stream into shards); --engine still
  // overrides either default.
  const bool sharded = args.get("output", "materialized") == "sharded";
  const auto& engine =
      core::EngineRegistry::global().require(args.get("engine", sharded ? "fused" : "parallel"));
  config.engine = engine.kind;
  config.engine_name = engine.name;
  config.num_threads = static_cast<std::size_t>(args.get_u64("threads", 0));
  config.chunk_size = static_cast<std::size_t>(args.get_u64("chunk", 0));  // 0 = whole block
  config.tile_trials = static_cast<std::size_t>(args.get_u64("tile", 0));  // 0 = heuristic
  const std::string ext = args.get("simd-ext", "auto");
  const auto extension = core::simd_extension_from_string(ext);
  if (!extension) throw std::runtime_error("unknown --simd-ext '" + ext + "'");
  config.simd_extension = *extension;
  if (args.has("window")) config.window = core::CoverageWindow::parse(args.require("window"));

  const std::string output = args.get("output", "materialized");
  if (output == "sharded") {
    config.output = core::OutputMode::kSharded;
  } else if (output != "materialized") {
    throw std::runtime_error("unknown --output '" + output +
                             "' (expected materialized or sharded)");
  }
  config.sharding.shard_trials = args.get_u64("shard-trials", 4096);
  config.sharding.memory_budget_bytes = args.get_mib("memory-budget-mb", 0);
  config.sharding.spill_dir = args.get("spill-dir", "");
  return config;
}

/// Telemetry options parsed once per command. Collection is enabled
/// process-wide here, before the engine runs, and stays on for the whole
/// command: the sharded read-back pass (CSV streaming, EP reduction) faults
/// shards *after* run_to_sink returns, and its I/O must land in the
/// counters too.
struct TelemetryCli {
  std::string format;    // "json" | "csv" | "prom" | "trace"; empty = no export
  std::string out_path;  // empty = stderr
  bool verbose = false;
  bool phases = false;   // --phases: print the Fig-6b table after the run
};

TelemetryCli parse_telemetry(const Args& args) {
  TelemetryCli telemetry;
  telemetry.verbose = args.has("verbose");
  telemetry.phases = args.has("phases");
  if (args.has("telemetry")) {
    telemetry.format = args.require("telemetry");
    if (telemetry.format != "json" && telemetry.format != "csv" &&
        telemetry.format != "prom" && telemetry.format != "trace") {
      throw std::runtime_error("unknown --telemetry '" + telemetry.format +
                               "' (expected json, csv, prom, or trace)");
    }
  }
  telemetry.out_path = args.get("telemetry-out", "");
  // --verbose summaries and the --phases table render from the registry,
  // so they too turn the counters on.
  if (!telemetry.format.empty() || telemetry.verbose || telemetry.phases) {
    obs::set_enabled(true);
  }
  if (telemetry.format == "trace") obs::set_trace_enabled(true);
  return telemetry;
}

/// The Fig-6b table (stderr): the kernel's per-phase laps and their shares,
/// how much of the kernel block time they cover, and the access counts.
/// Direct tables read event ids inside their gathers, so a cold run on them
/// reports lookup and financial terms fused as `combine`.
void report_phases(const obs::Snapshot& snapshot) {
  constexpr std::pair<const char*, const char*> kPhases[] = {
      {"combine", "kernel.phase.combine_ns"},
      {"ELT lookup", "kernel.phase.lookup_ns"},
      {"financial terms", "kernel.phase.financial_ns"},
      {"layer terms", "kernel.phase.layer_ns"},
      {"output", "kernel.phase.output_ns"},
  };
  const std::uint64_t total_ns = snapshot.counter_sum("kernel.phase.", "_ns");
  const auto row = [total_ns](const char* label, std::uint64_t ns) {
    std::fprintf(stderr, "  %-15s %10.4f s  %5.1f%%\n", label, static_cast<double>(ns) / 1e9,
                 total_ns != 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(total_ns)
                               : 0.0);
  };
  std::cerr << "phase breakdown (Fig 6b):\n";
  for (const auto& [label, name] : kPhases) row(label, snapshot.counter_value(name));
  row("total", total_ns);
  const std::uint64_t block_ns = snapshot.histogram_sum_ns("kernel.block_ns");
  std::fprintf(stderr, "  phases cover %.2f%% of %.4f s of kernel blocks\n",
               block_ns != 0 ? 100.0 * static_cast<double>(total_ns) / static_cast<double>(block_ns)
                             : 0.0,
               static_cast<double>(block_ns) / 1e9);
  std::fprintf(stderr, "accesses: %llu events, %llu ELT lookups\n",
               static_cast<unsigned long long>(snapshot.counter_value("kernel.events")),
               static_cast<unsigned long long>(snapshot.counter_sum("elt.", ".lookups")));
}

/// The --verbose table line (stderr): the direct tables' bytes and how many
/// of them sit on 2 MiB pages (0 when transparent huge pages are `never`).
void report_tables(const obs::Snapshot& snapshot) {
  const std::int64_t bytes = snapshot.gauge_value("elt.direct_access.bytes");
  if (bytes <= 0) return;
  constexpr double kMiB = 1 << 20;
  std::fprintf(stderr, "direct tables: %.1f MiB, %.1f MiB on 2 MiB pages\n",
               static_cast<double>(bytes) / kMiB,
               static_cast<double>(snapshot.gauge_value("elt.direct_access.huge_page_bytes")) /
                   kMiB);
}

void export_telemetry(const TelemetryCli& telemetry) {
  if (telemetry.verbose) report_tables(obs::TelemetryRegistry::global().snapshot());
  if (telemetry.phases) report_phases(obs::TelemetryRegistry::global().snapshot());
  if (telemetry.format.empty()) return;
  std::ofstream file;
  std::ostream* out = &std::cerr;
  if (!telemetry.out_path.empty()) {
    file.open(telemetry.out_path);
    if (!file) throw std::runtime_error("cannot write " + telemetry.out_path);
    out = &file;
  }
  if (telemetry.format == "trace") {
    obs::TraceBuffer::global().write_chrome_json(*out);
    return;
  }
  const obs::Snapshot snapshot = obs::TelemetryRegistry::global().snapshot();
  if (telemetry.format == "json") {
    obs::write_snapshot_json(*out, snapshot);
  } else if (telemetry.format == "csv") {
    obs::write_snapshot_csv(*out, snapshot);
  } else {
    obs::write_snapshot_prometheus(*out, snapshot);
  }
}

/// Post-run execution facts (stderr, so CSV/report stdout stays clean): the
/// resolved lane type and why it ran.
void report_execution(const core::InstrumentationSink& sink) {
  if (sink.simd_extension_used) {
    std::cerr << "note: kernel executed extension '"
              << core::to_string(*sink.simd_extension_used) << "'";
    // The runtime dispatch rationale: explicit request, ARE_SIMD_EXT
    // override, or the cpuid / compiled-in cap.
    if (sink.simd_resolution_note && !sink.simd_resolution_note->empty()) {
      std::cerr << " (" << *sink.simd_resolution_note << ")";
    }
    std::cerr << "\n";
  }
}

core::YearLossTable run_engine(core::AnalysisConfig config, const core::Portfolio& portfolio,
                               const yet::YearEventTable& yet_table) {
  core::InstrumentationSink sink;
  config.instrumentation = &sink;
  auto ylt = core::run({portfolio, yet_table, std::move(config)});
  report_execution(sink);
  return ylt;
}

/// Post-run shard-store facts (stderr, --verbose only): how hard the memory
/// budget pressed. Rendered from the telemetry registry — the store's
/// bespoke stats are no longer read here — so the numbers include every
/// spill/fault of the whole command (run + read-back), exactly what
/// --telemetry exports.
void report_sharding(const shard::ShardedYearLossTable& ylt, const TelemetryCli& telemetry) {
  if (!telemetry.verbose) return;
  const obs::Snapshot snapshot = obs::TelemetryRegistry::global().snapshot();
  std::fprintf(stderr,
               "sharded YLT: %zu shards x %llu trials, %llu spills, %llu faults, "
               "peak resident %.1f MB\n",
               ylt.num_shards(), static_cast<unsigned long long>(ylt.shard_trials()),
               static_cast<unsigned long long>(snapshot.counter_value("shard.spills")),
               static_cast<unsigned long long>(snapshot.counter_value("shard.faults")),
               static_cast<double>(snapshot.gauge_value("shard.peak_resident_bytes")) / 1e6);
}

/// Sharded execution path shared by run/report: engine -> out-of-core YLT.
/// Callers print report_sharding() after consuming the table, so the
/// spill/fault counters include the read-back pass too.
shard::ShardedYearLossTable run_engine_sharded(core::AnalysisConfig config,
                                               const core::Portfolio& portfolio,
                                               const yet::YearEventTable& yet_table) {
  core::InstrumentationSink sink;
  config.instrumentation = &sink;
  auto ylt = shard::run_sharded({portfolio, yet_table, std::move(config)});
  report_execution(sink);
  return ylt;
}

std::size_t universe_of(const yet::YearEventTable& yet_table, const Args& args) {
  // The catalog universe is whatever the user says, defaulting to one past
  // the largest event id present.
  if (args.has("catalog-size")) return static_cast<std::size_t>(args.get_u64("catalog-size", 0));
  yet::EventId max_event = 0;
  for (const auto event : yet_table.events()) max_event = std::max(max_event, event);
  return static_cast<std::size_t>(max_event) + 1;
}

// --- commands ----------------------------------------------------------------

int cmd_gen_elt(const Args& args) {
  elt::SyntheticEltConfig config;
  config.catalog_size = static_cast<std::size_t>(args.get_u64("catalog-size", 2'000'000));
  config.entries = static_cast<std::size_t>(args.get_u64("entries", 20'000));
  config.loss_alpha = args.get_double("loss-alpha", 1.5);
  config.loss_scale = args.get_double("loss-scale", 250e3);
  config.seed = args.get_u64("seed", 1);
  config.elt_id = args.get_u64("elt-id", 0);

  const elt::EventLossTable table = elt::make_synthetic_elt(config);
  const std::string out_path = args.require("out");
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  io::write_elt_binary(out, table);
  std::cout << "wrote " << out_path << ": " << table.size() << " event losses, total "
            << table.total_loss() << "\n";
  return 0;
}

int cmd_gen_elt_catmodel(const Args& args) {
  catalog::CatalogConfig catalog_config;
  catalog_config.num_events = static_cast<std::size_t>(args.get_u64("events", 50'000));
  catalog_config.expected_events_per_year = args.get_double("rate", 1000.0);
  catalog_config.seed = args.get_u64("seed", 20120901);
  const auto event_catalog = catalog::build_catalog(catalog_config);

  exposure::ExposureConfig exposure_config;
  exposure_config.num_sites = static_cast<std::size_t>(args.get_u64("sites", 5'000));
  exposure_config.seed = args.get_u64("exposure-seed", 7);
  const auto exposure_set = exposure::build_exposure(exposure_config);

  catmodel::CatModelConfig model_config;
  model_config.secondary_uncertainty = args.has("secondary-uncertainty");
  const auto table = catmodel::run_cat_model(event_catalog, exposure_set, model_config);

  const std::string out_path = args.require("out");
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  io::write_elt_binary(out, table);
  std::cout << "cat model: " << event_catalog.size() << " events x " << exposure_set.size()
            << " sites -> " << table.size() << " event losses; wrote " << out_path << "\n";
  return 0;
}

int cmd_gen_yet(const Args& args) {
  yet::YetConfig config;
  config.num_trials = args.get_u64("trials", 100'000);
  config.events_per_trial = args.get_double("events", 1000.0);
  config.seed = args.get_u64("seed", 2012);
  const std::string model = args.get("model", "fixed");
  if (model == "fixed") {
    config.count_model = yet::CountModel::kFixed;
  } else if (model == "poisson") {
    config.count_model = yet::CountModel::kPoisson;
  } else if (model == "negbin") {
    config.count_model = yet::CountModel::kNegativeBinomial;
    config.dispersion = args.get_double("dispersion", 50.0);
  } else {
    throw std::runtime_error("unknown --model '" + model + "'");
  }

  const auto catalog_size = static_cast<std::size_t>(args.get_u64("catalog-size", 2'000'000));
  const auto table = yet::generate_uniform_yet(config, catalog_size);

  const std::string out_path = args.require("out");
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  io::write_yet_binary(out, table);
  std::cout << "wrote " << out_path << ": " << table.num_trials() << " trials, "
            << table.total_events() << " occurrences ("
            << static_cast<double>(table.memory_bytes()) / 1e6 << " MB)\n";
  return 0;
}

int cmd_run(const Args& args) {
  const TelemetryCli telemetry = parse_telemetry(args);
  const core::AnalysisConfig config = parse_engine_config(args);  // flags fail before loading
  const auto yet_table = load_yet(args.require("yet"));
  const auto portfolio = build_portfolio(args, universe_of(yet_table, args));
  const std::string out_path = args.require("out");

  // The output file is only opened (and truncated) once the engine has
  // succeeded, so a failing run leaves any pre-existing file intact.
  const auto open_out = [&] {
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    return out;
  };

  if (config.output == core::OutputMode::kSharded) {
    // Out-of-core: the full trials x layers table never exists in memory;
    // the CSV streams out one pinned shard at a time, byte-identical to
    // the materialized writer.
    auto ylt = run_engine_sharded(config, portfolio, yet_table);
    auto out = open_out();
    io::write_ylt_csv(out, ylt);
    report_sharding(ylt, telemetry);
    export_telemetry(telemetry);
    std::cout << "wrote " << out_path << ": " << ylt.num_trials() << " trial losses ("
              << ylt.num_shards() << " shards)\n";
    return 0;
  }
  const auto ylt = run_engine(config, portfolio, yet_table);
  auto out = open_out();
  io::write_ylt_csv(out, ylt);
  export_telemetry(telemetry);
  std::cout << "wrote " << out_path << ": " << ylt.num_trials() << " trial losses\n";
  return 0;
}

int cmd_report(const Args& args) {
  const TelemetryCli telemetry = parse_telemetry(args);
  const core::AnalysisConfig config = parse_engine_config(args);
  const auto yet_table = load_yet(args.require("yet"));
  const auto portfolio = build_portfolio(args, universe_of(yet_table, args));

  metrics::EpCurve curve;
  std::uint64_t trials = 0;
  double standard_error = 0.0;
  if (config.output == core::OutputMode::kSharded) {
    // Shard-wise streaming reduction: sorted runs + k-way merge for the
    // exact EP curve, RunningStats for the standard error — bit-identical
    // to the materialized metrics below.
    auto ylt = run_engine_sharded(config, portfolio, yet_table);
    trials = ylt.num_trials();
    curve = metrics::ep_curve_sharded(ylt, 0);
    const metrics::RunningStats stats = metrics::stats_sharded(ylt, 0);
    standard_error = stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
    report_sharding(ylt, telemetry);
  } else {
    const auto ylt = run_engine(config, portfolio, yet_table);
    trials = ylt.num_trials();
    curve = metrics::EpCurve(ylt.layer_losses(0));
    standard_error = metrics::mean_standard_error(ylt.layer_losses(0));
  }
  export_telemetry(telemetry);

  std::cout << "trials              : " << trials << "\n";
  std::cout << "expected annual loss: " << curve.expected_loss() << "\n";
  std::cout << "TVaR(99%)           : " << curve.tail_value_at_risk(0.99) << "\n";
  std::cout << "EL standard error   : " << standard_error << "\n\n";
  io::write_ep_csv(std::cout, curve.table(metrics::standard_return_periods()));
  return 0;
}

int cmd_price(const Args& args) {
  const TelemetryCli telemetry = parse_telemetry(args);
  const core::AnalysisConfig config = parse_engine_config(args);
  if (config.output == core::OutputMode::kSharded) {
    // Refused before any input loads: a quote prices the materialized YLT.
    throw std::runtime_error("--output sharded is for run and report only");
  }
  pricing::PricingAssumptions assumptions;
  assumptions.stddev_loading = args.get_double("stddev-loading", assumptions.stddev_loading);
  assumptions.tvar_loading = args.get_double("tvar-loading", assumptions.tvar_loading);
  assumptions.expense_ratio = args.get_double("expense-ratio", assumptions.expense_ratio);
  assumptions.validate();  // a bad loading fails before any input loads
  const auto yet_table = load_yet(args.require("yet"));
  const auto portfolio = build_portfolio(args, universe_of(yet_table, args));
  const auto ylt = run_engine(config, portfolio, yet_table);
  const auto quote =
      pricing::price_layer(ylt.layer_losses(0), portfolio.layers[0].terms, assumptions);
  export_telemetry(telemetry);
  std::cout << pricing::describe(quote) << "\n";
  return 0;
}

int cmd_list_engines(const Args& args) {
  const auto& registry = core::EngineRegistry::global();
  if (args.has("names")) {
    // Machine-readable: one canonical name per line (what CI loops over).
    for (const auto& engine : registry.descriptors()) std::cout << engine.name << "\n";
    return 0;
  }

  // Every engine honours every knob (--chunk, --tile, --simd-ext, --window,
  // --output sharded) and is bit-identical to scalar seq with the
  // same window; only pool reuse differs.
  std::printf("%-9s %-5s %s\n", "engine", "pool", "summary");
  for (const auto& engine : registry.descriptors()) {
    std::printf("%-9s %-5s %s\n", engine.name.c_str(), engine.supports_pool_reuse ? "yes" : "no",
                engine.summary.c_str());
    if (!engine.availability_note.empty()) {
      std::printf("%-9s %s\n", "", engine.availability_note.c_str());
    }
  }
  return 0;
}

/// `are_cli serve`: load the YET/ELTs once, register them as a book, and
/// answer quote lines over an AF_UNIX socket until SHUTDOWN. Telemetry
/// counters are enabled for the life of the server — the broker's admission
/// state lives in the registry, and every response carries its per-request
/// Snapshot::diff.
int cmd_serve(const Args& args) {
  // Every service flag is read, and a bad one refused, before any input
  // loads.
  service::ServiceConfig config;
  config.default_engine = args.get("engine", "fused");
  core::EngineRegistry::global().require(config.default_engine);
  config.session.num_threads = static_cast<std::size_t>(args.get_u64("threads", 0));
  config.session.ground_up_budget_bytes = args.get_mib("ground-up-budget-mb", 512);
  config.broker.max_request_cost = args.get_u64("max-request-cost", 0);
  config.broker.max_inflight_cost = args.get_u64("max-inflight-cost", 0);
  config.broker.max_queued = static_cast<std::size_t>(args.get_u64("queue-limit", 16));
  config.cache_entries = static_cast<std::size_t>(args.get_u64("cache-entries", 64));
  if (args.has("metrics-port")) {
    config.metrics_port = static_cast<int>(args.get_u64_at_most("metrics-port", 0, 65'535));
    config.metrics_bind = args.get("metrics-bind", "127.0.0.1");
  }
  config.access_log_path = args.get("access-log", "");
  const std::string trace_out = args.get("trace-out", "");

  obs::set_enabled(true);
  auto yet_table = load_yet(args.require("yet"));
  auto portfolio = build_portfolio(args, universe_of(yet_table, args));
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  const std::string book = args.get("portfolio", "book");
  service::AnalysisService analysis_service(std::move(yet_table), config);
  analysis_service.register_portfolio(book, std::move(portfolio));

  service::ServerOptions options;
  options.socket_path = args.get("socket", "are.sock");
  options.verbose = args.has("verbose");
  service::Server server(analysis_service, options);
  std::cout << "serving portfolio '" << book << "' on " << options.socket_path
            << " (engine " << config.default_engine << ", "
            << analysis_service.session().yet_table().num_trials() << " trials)";
  if (analysis_service.metrics_server() != nullptr) {
    std::cout << " metrics on http://" << config.metrics_bind << ":"
              << analysis_service.metrics_server()->port();
  }
  std::cout << "\n" << std::flush;
  const int rc = server.serve();
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) throw std::runtime_error("cannot write " + trace_out);
    obs::TraceBuffer::global().write_chrome_json(out);
  }
  return rc;
}

/// `are_cli quote`: one protocol line to a running serve, response to
/// stdout. Exit status is 0 only for an ok response, so shell scripts (and
/// the CI smoke) can gate on it directly.
int cmd_quote(const Args& args) {
  const std::string socket_path = args.get("socket", "are.sock");
  std::ostringstream line;
  if (args.has("ping")) {
    line << "PING";
  } else if (args.has("update")) {
    line << "UPDATE portfolio=" << args.get("portfolio", "book")
         << " layer=" << args.get_u64("layer", 1);
  } else if (args.has("shutdown")) {
    line << "SHUTDOWN";
  } else {
    line << "QUOTE portfolio=" << args.get("portfolio", "book")
         << " layer=" << args.get_u64("layer", 1);
  }
  // Terms ride along verbatim (QUOTE builds a per-request override; UPDATE
  // mutates the book). Only keys the user actually passed are sent, so a
  // bare quote reprices the book's own terms.
  for (const char* key : {"occ-retention", "occ-limit", "agg-retention", "agg-limit"}) {
    if (args.has(key)) line << ' ' << key << '=' << args.require(key);
  }
  if (!args.has("ping") && !args.has("update") && !args.has("shutdown")) {
    if (args.has("engine")) line << " engine=" << args.require("engine");
    if (args.has("window")) line << " window=" << args.require("window");
    if (args.has("no-cache")) line << " cache=0";
    if (args.has("no-delta")) line << " delta=0";
    if (args.has("csv")) line << " csv=" << args.require("csv");
    if (args.has("deadline-ms")) line << " deadline-ms=" << args.get_u64("deadline-ms", 0);
  }

  // Retry loop: exponential backoff with jitter, but only for failures the
  // server marks "retryable":true (deadline, resource exhaustion, queue
  // full, shutdown races) and for transport errors (server not up yet).
  // Malformed requests and other terminal statuses return immediately.
  const std::uint64_t max_retries = args.get_u64("retries", 0);
  const std::uint64_t base_ms = args.get_u64("retry-base-ms", 100);
  std::mt19937_64 jitter_rng(std::random_device{}());
  std::string response;
  for (std::uint64_t attempt = 0;; ++attempt) {
    bool transport_error = false;
    try {
      response = service::Server::round_trip(socket_path, line.str());
    } catch (const std::exception& error) {
      if (attempt >= max_retries) throw;
      transport_error = true;
      std::cerr << "quote attempt " << (attempt + 1) << ": " << error.what() << "\n";
    }
    if (!transport_error) {
      const bool ok = response.find("\"status\":\"ok\"") != std::string::npos;
      const bool retryable = response.find("\"retryable\":true") != std::string::npos;
      if (ok || !retryable || attempt >= max_retries) break;
      std::cerr << "quote attempt " << (attempt + 1) << ": retryable failure: " << response
                << "\n";
    }
    const std::uint64_t backoff = base_ms << std::min<std::uint64_t>(attempt, 10);
    const std::uint64_t jitter =
        backoff > 1 ? std::uniform_int_distribution<std::uint64_t>(0, backoff / 2)(jitter_rng)
                    : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff + jitter));
  }
  std::cout << response << "\n";
  return response.find("\"status\":\"ok\"") != std::string::npos ? 0 : 1;
}

/// Parses Prometheus text exposition into exact-key samples:
/// "are_service_inflight_cost 42" and
/// "are_service_quote_ns_p50_ns{source=\"cold\"} 9000" keep their full
/// series name (labels included) as the key. Comment/TYPE lines skipped.
std::vector<std::pair<std::string, double>> parse_prometheus_text(const std::string& body) {
  std::vector<std::pair<std::string, double>> samples;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) continue;
    try {
      samples.emplace_back(line.substr(0, space), std::stod(line.substr(space + 1)));
    } catch (const std::exception&) {
      // +Inf etc. in a value position — not a series top cares about.
    }
  }
  return samples;
}

double metric_value(const std::vector<std::pair<std::string, double>>& samples,
                    const std::string& key) {
  for (const auto& [name, value] : samples) {
    if (name == key) return value;
  }
  return 0.0;
}

/// `are_cli top`: poll a running serve's /metrics endpoint and render a
/// refreshing terminal dashboard. Pure scrape client — everything shown is
/// derivable from the Prometheus text, so anything top displays is also
/// available to a real scraper.
int cmd_top(const Args& args) {
  const std::string connect = args.get("connect", "127.0.0.1:9464");
  const std::size_t colon = connect.rfind(':');
  if (colon == std::string::npos || colon + 1 >= connect.size()) {
    throw std::runtime_error("--connect needs HOST:PORT");
  }
  const std::string host = connect.substr(0, colon);
  const int port = static_cast<int>(std::stoul(connect.substr(colon + 1)));
  const std::uint64_t interval_ms = args.get_u64("interval-ms", 1000);
  const std::uint64_t iterations = args.get_u64("iterations", 0);  // 0 = until ^C
  const bool clear = !args.has("no-clear");

  double prev_requests = -1.0;
  for (std::uint64_t tick = 0; iterations == 0 || tick < iterations; ++tick) {
    if (tick != 0) std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const auto m = parse_prometheus_text(obs::http_get(host, port, "/metrics"));

    const double requests = metric_value(m, "are_service_requests_total");
    const double qps = prev_requests >= 0.0
                           ? (requests - prev_requests) * 1e3 /
                                 static_cast<double>(interval_ms)
                           : 0.0;
    prev_requests = requests;

    std::ostringstream out;
    out << "are_cli top — " << connect << "  up "
        << metric_value(m, "are_uptime_seconds") << "s\n";
    {
      const double inflight = metric_value(m, "are_service_inflight_requests");
      const double cost = metric_value(m, "are_service_inflight_cost");
      const double budget = metric_value(m, "are_service_inflight_cost_budget");
      const double queued = metric_value(m, "are_service_queued_requests");
      const double queue_limit = metric_value(m, "are_service_queue_limit");
      out << "requests " << requests << " (" << qps << " qps)  inflight " << inflight
          << " cost " << cost << "/"
          << (budget > 0 ? std::to_string(static_cast<long long>(budget)) : "inf")
          << "  queued " << queued << "/" << queue_limit << "\n";
    }
    out << "source       count     p50 ms     p99 ms\n";
    for (const char* source : {"cold", "delta", "cached", "rejected", "failed"}) {
      const std::string labels = "{source=\"" + std::string(source) + "\"}";
      const double count = metric_value(m, "are_service_quote_ns_count" + labels);
      char row[96];
      std::snprintf(row, sizeof row, "%-10s %7.0f %10.2f %10.2f\n", source, count,
                    metric_value(m, "are_service_quote_ns_p50_ns" + labels) / 1e6,
                    metric_value(m, "are_service_quote_ns_p99_ns" + labels) / 1e6);
      out << row;
    }
    {
      const double hits = metric_value(m, "are_service_cache_hits_total");
      const double misses = metric_value(m, "are_service_cache_misses_total");
      const double probes = hits + misses;
      out << "cache hits " << hits << " misses " << misses << " ("
          << (probes > 0 ? 100.0 * hits / probes : 0.0) << "% hit)  evictions "
          << metric_value(m, "are_service_cache_evictions_total") << "\n";
    }
    {
      std::ostringstream faults;
      constexpr std::string_view prefix = "are_fault_injected_";
      for (const auto& [name, value] : m) {
        if (value == 0.0 || name.rfind(prefix, 0) != 0) continue;
        std::string site = name.substr(prefix.size());
        if (site.size() > 6 && site.compare(site.size() - 6, 6, "_total") == 0) {
          site.resize(site.size() - 6);
        }
        faults << " " << site << "=" << value;
      }
      out << "fault fires:" << (faults.str().empty() ? " none" : faults.str()) << "\n";
    }
    if (clear) std::cout << "\033[H\033[2J";
    std::cout << out.str() << std::flush;
  }
  return 0;
}

/// `are_cli simd-info`: what the runtime dispatch layer resolved for this
/// (binary, host) pair. `--runnable` prints one runnable extension name per
/// line — the machine-readable form CI's ARE_SIMD_EXT override loop
/// consumes, so the loop only pins extensions this host can execute.
int cmd_simd_info(const Args& args) {
  const simd::ExtensionMask runnable = simd::runnable_extensions();
  if (args.has("runnable")) {
    for (int i = 0; i < simd::kNumExtensions; ++i) {
      const auto extension = static_cast<simd::Extension>(i);
      if (simd::mask_has(runnable, extension)) std::cout << simd::name_of(extension) << "\n";
    }
    return 0;
  }
  std::cout << "cpuid detected : " << simd::describe_mask(simd::detected_extensions()) << "\n";
  std::cout << "compiled in    : " << simd::describe_mask(simd::compiled_extensions()) << "\n";
  std::cout << "runnable       : " << simd::describe_mask(runnable) << "\n";
  if (const auto override_ext = simd::env_override()) {
    std::cout << "ARE_SIMD_EXT   : " << simd::name_of(*override_ext) << "\n";
  }
  std::cout << "auto runs      : " << simd::name_of(simd::best_extension()) << " ("
            << simd::best_extension_reason() << ")\n";
  return 0;
}

int cmd_info(const Args& args) {
  if (args.has("yet")) {
    const auto table = load_yet(args.require("yet"));
    std::cout << "YET: " << table.num_trials() << " trials, " << table.total_events()
              << " occurrences, mean " << table.mean_events_per_trial() << " events/trial, "
              << static_cast<double>(table.memory_bytes()) / 1e6 << " MB\n";
    return 0;
  }
  if (args.has("elt")) {
    tools::describe_elts(std::cout, tools::elt_paths(args));
    return 0;
  }
  throw std::runtime_error("info needs --yet FILE or --elt FILE");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  try {
    // Fault-injection arming is process-wide and applies to every command:
    // ARE_FAULT first, then --fault (the flag can re-arm or "never" out an
    // env-armed site).
    if (const char* env = std::getenv("ARE_FAULT"); env != nullptr && *env != '\0') {
      fault::FaultRegistry::global().arm_from_list(env);
    }
    if (args.has("fault")) {
      fault::FaultRegistry::global().arm_from_list(args.require("fault"));
    }
    if (command == "gen-elt") return cmd_gen_elt(args);
    if (command == "gen-elt-catmodel") return cmd_gen_elt_catmodel(args);
    if (command == "gen-yet") return cmd_gen_yet(args);
    if (command == "run") return cmd_run(args);
    if (command == "report") return cmd_report(args);
    if (command == "price") return cmd_price(args);
    if (command == "info") return cmd_info(args);
    if (command == "simd-info") return cmd_simd_info(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "quote") return cmd_quote(args);
    if (command == "top") return cmd_top(args);
    if (command == "list-engines" || command == "--list-engines") return cmd_list_engines(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "are_cli " << command << ": " << error.what() << "\n";
    return 1;
  }
}
