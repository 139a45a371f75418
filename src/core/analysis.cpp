#include "core/analysis.hpp"

#include <stdexcept>
#include <string>

#include "core/engine_registry.hpp"
#include "core/trial_kernel.hpp"

namespace are::core {

void AnalysisConfig::validate() const {
  if (window) window->validate();
  if (sharding.shard_trials == 0) {
    throw std::invalid_argument("AnalysisConfig: sharding.shard_trials must be > 0");
  }
  if (ground_up_capture != nullptr && ground_up_replay != nullptr) {
    throw std::invalid_argument(
        "AnalysisConfig: ground_up_capture and ground_up_replay are mutually exclusive");
  }
}

namespace {

/// Shared validation + engine resolution for both front doors.
const EngineDescriptor& resolve_engine(const AnalysisConfig& config) {
  config.validate();

  const EngineRegistry& registry = EngineRegistry::global();
  const EngineDescriptor& engine = config.engine_name.empty()
                                       ? registry.require(config.engine)
                                       : registry.require(config.engine_name);
  if (config.pool != nullptr && !engine.supports_pool_reuse) {
    throw std::invalid_argument("engine '" + engine.name +
                                "' cannot reuse a borrowed thread pool (clear "
                                "AnalysisConfig::pool)");
  }
  return engine;
}

/// The two halves of a kernel run, resolved from the request: what the
/// kernel computes per block (config) and how blocks are scheduled (launch)
/// — plus why that lane type was chosen (InstrumentationSink's note).
struct ResolvedExecution {
  TrialKernelConfig config;
  KernelLaunch launch;
  std::string simd_note;
};

ResolvedExecution resolve_execution(const AnalysisRequest& request, EngineKind kind) {
  const AnalysisConfig& config = request.config;
  ResolvedExecution resolved;
  // The knobs every engine honours: they parameterize the kernel body, so
  // no schedule can change the bytes they produce.
  resolved.config.window = config.window;
  resolved.config.event_chunk = config.chunk_size;
  resolved.config.block_trials = config.tile_trials;
  resolved.config.ground_up_capture = config.ground_up_capture;
  resolved.config.ground_up_replay = config.ground_up_replay;
  resolved.config.cancel = config.cancel;
  if (kind == EngineKind::kSequential && config.simd_extension == SimdExtension::kAuto) {
    // seq is the reference every other run is compared with, so kAuto
    // keeps it scalar; an explicit extension is honoured like anywhere.
    resolved.config.extension = SimdExtension::kScalar;
    resolved.simd_note = "seq runs scalar lanes under auto (the reference)";
  } else {
    const SimdResolution simd = resolve_simd_extension_ex(
        request.portfolio, {config.num_threads, config.simd_extension});
    resolved.config.extension = simd.extension;
    resolved.simd_note = simd.note;
  }

  // The schedule is the engine.
  resolved.launch.engine = kind;
  resolved.launch.num_threads = config.num_threads;
  resolved.launch.pool = config.pool;  // non-null only past the pool check
  return resolved;
}

/// Shared execution path of both front doors: resolves the kernel config +
/// launch, records the per-run facts, and runs.
void execute(const AnalysisRequest& request, EngineKind kind, YearLossTable* ylt,
             YltSink* sink) {
  const ResolvedExecution resolved = resolve_execution(request, kind);
  InstrumentationSink* facts = request.config.instrumentation;
  if (facts != nullptr) {
    facts->engine_used = kind;
    facts->simd_extension_used = resolved.config.extension;
    facts->simd_resolution_note = resolved.simd_note;
  }
  run_trial_kernel(request.portfolio, request.yet_table, resolved.config, resolved.launch, ylt,
                   sink);
}

}  // namespace

YearLossTable run(const AnalysisRequest& request) {
  const EngineDescriptor& engine = resolve_engine(request.config);
  if (request.config.output == OutputMode::kSharded) {
    throw std::invalid_argument(
        "run() returns a materialized YLT; for OutputMode::kSharded call shard::run_sharded "
        "(or core::run_to_sink with your own sink)");
  }
  std::vector<std::uint32_t> layer_ids;
  for (const Layer& layer : request.portfolio.layers) layer_ids.push_back(layer.id);
  YearLossTable ylt(std::move(layer_ids), request.yet_table.num_trials());
  execute(request, engine.kind, &ylt, nullptr);
  return ylt;
}

void run_to_sink(const AnalysisRequest& request, YltSink& sink) {
  const EngineDescriptor& engine = resolve_engine(request.config);
  execute(request, engine.kind, nullptr, &sink);
}

}  // namespace are::core
