// One-shot workloads: the sequential reference report and the traced pass.
//
// The reference loads every ELT the benchmark lists (positionally, through
// this tool's own option reader, never the CLI's) and renders the report
// `are_cli report` prints from a sequential-engine YLT. The benchmark
// compares the CLI's stdout with it byte for byte.
//
// The traced pass (--trace) makes the public calls `are_cli report` makes,
// in the same order, on the same files and config — io::read_yet_binary,
// io::read_elt_binary + elt::make_lookup per ELT, core::run (parallel) or
// shard::run_sharded (fused, sharded output), then the EP curve and the
// standard error — each inside a span of the benchmark's own. Its YLT is
// checked bit for bit against the sequential one.

#include <cstring>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "core/simd_engine.hpp"
#include "io/csv.hpp"
#include "metrics/convergence.hpp"
#include "metrics/ep_curve.hpp"
#include "metrics/sharded_reduce.hpp"
#include "obs/telemetry.hpp"
#include "shard/sharded_run.hpp"

namespace perfbench {

namespace {

using namespace are;

/// The text `are_cli report` writes to stdout.
std::string render_report(std::uint64_t trials, const metrics::EpCurve& curve,
                          double standard_error) {
  std::ostringstream out;
  out << "trials              : " << trials << "\n";
  out << "expected annual loss: " << curve.expected_loss() << "\n";
  out << "TVaR(99%)           : " << curve.tail_value_at_risk(0.99) << "\n";
  out << "EL standard error   : " << standard_error << "\n\n";
  io::write_ep_csv(out, curve.table(metrics::standard_return_periods()));
  return out.str();
}

bool same_bits(const core::YearLossTable& a, const core::YearLossTable& b) {
  if (a.num_layers() != b.num_layers() || a.num_trials() != b.num_trials()) return false;
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    const auto x = a.layer_losses(layer);
    const auto y = b.layer_losses(layer);
    if (std::memcmp(x.data(), y.data(), x.size_bytes()) != 0) return false;
  }
  return true;
}

/// The engine config `are_cli report` builds from its defaults.
core::AnalysisConfig cli_config(const Options& options, core::InstrumentationSink* sink) {
  core::AnalysisConfig config;
  config.instrumentation = sink;
  if (options.has("sharded")) {
    config.engine = core::EngineKind::kFused;
    config.engine_name = "fused";
    config.output = core::OutputMode::kSharded;
    config.sharding.shard_trials = static_cast<std::uint64_t>(options.number("shard-trials", 4096));
    config.sharding.memory_budget_bytes =
        static_cast<std::size_t>(options.number("memory-budget-mb", 0)) << 20;
    config.sharding.spill_dir = options.get("spill-dir");
  } else {
    config.engine = core::EngineKind::kParallel;
    config.engine_name = "parallel";
  }
  return config;
}

std::string counters_json(const obs::Snapshot& diff) {
  Json json;
  for (const auto& counter : diff.counters) json.num(counter.name, static_cast<double>(counter.value));
  for (const auto& gauge : diff.gauges) json.num(gauge.name, static_cast<double>(gauge.value));
  for (const auto& histogram : diff.histograms) {
    json.num(histogram.name + ".count", static_cast<double>(histogram.count));
    json.num(histogram.name + ".sum_ns", static_cast<double>(histogram.sum_ns));
    json.num(histogram.name + ".max_ns", static_cast<double>(histogram.max_ns));
  }
  return json.done();
}

}  // namespace

int cmd_oneshot(const Options& options) {
  const std::string yet_path = options.require("yet");
  const auto catalog_size = static_cast<std::size_t>(options.number("catalog-size", 0));
  const std::vector<std::string>& elt_paths = options.positional();
  if (elt_paths.empty()) throw std::runtime_error("no ELT files given");
  const bool sharded = options.has("sharded");
  Json out;

  yet::YearEventTable yet_table;
  core::Portfolio portfolio;
  std::string traced_report;
  core::YearLossTable traced_ylt;
  if (options.has("trace")) {
    obs::set_enabled(true);  // pool and shard counters for the per-layer metrics
    const obs::Snapshot before = obs::TelemetryRegistry::global().snapshot();
    Tracer tracer;
    const int root = tracer.open("report", "bench");
    {
      Scoped span(tracer, "io.read_yet_binary", "io", root);
      yet_table = load_yet(yet_path);
    }
    core::Layer layer;
    layer.id = 1;
    for (const std::string& path : elt_paths) {
      elt::EventLossTable table;
      {
        Scoped span(tracer, "io.read_elt_binary", "io", root);
        table = load_elt(path);
      }
      Scoped span(tracer, "elt.make_lookup", "elt", root);
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, catalog_size);
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));

    core::InstrumentationSink sink;
    const core::AnalysisConfig config = cli_config(options, &sink);
    std::uint64_t trials = 0;
    metrics::EpCurve curve;
    double standard_error = 0.0;
    obs::Snapshot diff;
    if (sharded) {
      shard::ShardedYearLossTable ylt = [&] {
        Scoped span(tracer, "shard.run_sharded", "shard", root);
        return shard::run_sharded({portfolio, yet_table, config});
      }();
      trials = ylt.num_trials();
      {
        Scoped span(tracer, "metrics.ep_curve_sharded", "metrics", root);
        curve = metrics::ep_curve_sharded(ylt, 0);
      }
      {
        Scoped span(tracer, "metrics.stats_sharded", "metrics", root);
        const metrics::RunningStats stats = metrics::stats_sharded(ylt, 0);
        standard_error = stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
      }
      tracer.close(root);
      diff = obs::TelemetryRegistry::global().snapshot().diff(before);
      const shard::ShardStoreStats stats = ylt.stats();
      out.num("shard_spills", static_cast<double>(stats.spills))
          .num("shard_faults", static_cast<double>(stats.faults))
          .num("shard_peak_resident_bytes", static_cast<double>(stats.peak_resident_bytes))
          .num("shard_trials", static_cast<double>(ylt.shard_trials()))
          .num("shards", static_cast<double>(ylt.num_shards()));
      traced_ylt = ylt.materialize();  // outside the spans: only for the bit check
    } else {
      {
        Scoped span(tracer, "core.run", "core", root);
        traced_ylt = core::run({portfolio, yet_table, config});
      }
      trials = traced_ylt.num_trials();
      {
        Scoped span(tracer, "metrics.ep_curve", "metrics", root);
        curve = metrics::EpCurve(traced_ylt.layer_losses(0));
        standard_error = metrics::mean_standard_error(traced_ylt.layer_losses(0));
      }
      tracer.close(root);
      diff = obs::TelemetryRegistry::global().snapshot().diff(before);
    }
    obs::set_enabled(false);
    traced_report = render_report(trials, curve, standard_error);

    // The kernel's own record of the extension it executed.
    std::string executed = "unknown";
    for (const auto& counter : diff.counters) {
      const std::string prefix = "kernel.simd_ext{ext=";
      if (counter.value != 0 && counter.name.rfind(prefix, 0) == 0) {
        executed = counter.name.substr(prefix.size(), counter.name.size() - prefix.size() - 1);
      }
    }
    out.raw("spans", tracer.json())
        .raw("counters", counters_json(diff))
        .str("executed_extension", executed);

    if (options.has("gather-per-s")) {
      out.num("predicted_s", predict_kernel_seconds(portfolio, yet_table, options));
    }
  } else {
    yet_table = load_yet(yet_path);
    std::vector<elt::EventLossTable> tables;
    for (const std::string& path : elt_paths) tables.push_back(load_elt(path));
    portfolio = make_portfolio(tables, catalog_size);
  }

  // The sequential reference on the same inputs.
  core::AnalysisConfig seq;
  seq.engine = core::EngineKind::kSequential;
  seq.engine_name = "seq";
  seq.num_threads = 1;
  const core::YearLossTable reference = core::run({portfolio, yet_table, seq});
  const std::string report =
      render_report(reference.num_trials(), metrics::EpCurve(reference.layer_losses(0)),
                    metrics::mean_standard_error(reference.layer_losses(0)));

  std::size_t table_bytes = 0;
  for (const auto& layer_elt : portfolio.layers[0].elts) table_bytes += layer_elt.lookup->memory_bytes();
  core::AnalysisConfig cli = cli_config(options, nullptr);
  const core::SimdResolution kauto =
      core::resolve_simd_extension_ex(portfolio, {cli.num_threads, core::SimdExtension::kAuto});

  out.str("reference_report", report)
      .num("elts_loaded", static_cast<double>(portfolio.layers[0].elts.size()))
      .num("trials", static_cast<double>(yet_table.num_trials()))
      .num("occurrences", static_cast<double>(yet_table.total_events()))
      .num("yet_mb", static_cast<double>(yet_table.memory_bytes()) / 1e6)
      .num("table_mb", static_cast<double>(table_bytes) / 1e6)
      .str("engine", cli.engine_name)
      .num("threads", std::max(1u, std::thread::hardware_concurrency()))
      .str("kauto_extension", std::string(core::to_string(kauto.extension)))
      .str("kauto_note", kauto.note);
  if (options.has("trace")) {
    out.num("traced_report_matches", traced_report == report ? 1 : 0)
        .num("traced_ylt_bit_identical", same_bits(traced_ylt, reference) ? 1 : 0);
  }
  std::cout << out.done() << "\n";
  return 0;
}

}  // namespace perfbench
