#pragma once

#include <cstddef>
#include <cstdint>

#include "core/layer.hpp"
#include "core/year_loss_table.hpp"
#include "core/ylt_sink.hpp"
#include "parallel/parallel_for.hpp"
#include "yet/year_event_table.hpp"

// The engine vocabulary shared by the front door (core/analysis.hpp), the
// trial-block kernel, and the cost models: the paper's memory-access counts.
// Every engine runs the paper's "Basic Algorithm for Aggregate Risk
// Analysis" — (1) look up each event's loss in each covered ELT, (2) apply
// the ELT financial terms and combine across ELTs, (3) apply occurrence
// terms, (4) accumulate and apply aggregate terms — in the shared
// trial-block kernel (core/trial_kernel.hpp); callers reach it through
// core::run / core::run_to_sink.

namespace are::core {

/// Memory-access counts per run — the inputs to the perfmodel and simgpu
/// cost models. "Random" accesses are dependent loads with no locality
/// (ELT lookups); "streaming" accesses are sequential scans (event fetch).
struct AccessCounts {
  std::uint64_t events_fetched = 0;       // streaming reads of E_{i,k}
  std::uint64_t elt_lookups = 0;          // random reads into lookup tables
  std::uint64_t financial_applications = 0;
  std::uint64_t layer_term_applications = 0;
};

/// Pure access-count prediction without running the simulation (used by the
/// analytical models; tests assert a telemetered run's `elt.*.lookups`
/// counters against elt_lookups).
AccessCounts predict_access_counts(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table) noexcept;

}  // namespace are::core
