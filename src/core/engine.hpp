#pragma once

#include <cstddef>
#include <cstdint>

#include "core/layer.hpp"
#include "core/year_loss_table.hpp"
#include "core/ylt_sink.hpp"
#include "parallel/parallel_for.hpp"
#include "yet/year_event_table.hpp"

// The engine vocabulary shared by the front door (core/analysis.hpp), the
// trial-block kernel, and the cost models: the Fig-6b phase breakdown and
// the paper's memory-access counts. Every engine runs the paper's "Basic
// Algorithm for Aggregate Risk Analysis" — (1) look up each event's loss in
// each covered ELT, (2) apply the ELT financial terms and combine across
// ELTs, (3) apply occurrence terms, (4) accumulate and apply aggregate
// terms — in the shared trial-block kernel (core/trial_kernel.hpp); callers
// reach it through core::run / core::run_to_sink.

namespace are::core {

/// Phase attribution of a run with AnalysisConfig::collect_phases (Fig 6b
/// of the paper: event fetch / ELT lookup / financial terms / layer terms)
/// plus an output phase for sink emission — zero on materialized runs (no
/// sink), so the four Fig-6b fractions still sum to 1.0 there.
struct PhaseBreakdown {
  double fetch_seconds = 0.0;
  double lookup_seconds = 0.0;
  double financial_seconds = 0.0;
  double layer_seconds = 0.0;
  double output_seconds = 0.0;

  double total_seconds() const noexcept {
    return fetch_seconds + lookup_seconds + financial_seconds + layer_seconds + output_seconds;
  }
  /// Fractions are 0.0 (not NaN) when nothing has been timed yet.
  double fetch_fraction() const noexcept { return fraction(fetch_seconds); }
  double lookup_fraction() const noexcept { return fraction(lookup_seconds); }
  double financial_fraction() const noexcept { return fraction(financial_seconds); }
  double layer_fraction() const noexcept { return fraction(layer_seconds); }
  double output_fraction() const noexcept { return fraction(output_seconds); }

 private:
  double fraction(double seconds) const noexcept {
    const double total = total_seconds();
    return total > 0.0 ? seconds / total : 0.0;
  }
};

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
/// analytical models and asserted against the counters a collect_phases run
/// records in tests).
AccessCounts predict_access_counts(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table) noexcept;

}  // namespace are::core
