#include "core/engine.hpp"

namespace are::core {

AccessCounts predict_access_counts(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table) noexcept {
  AccessCounts counts;
  const std::uint64_t total_events = yet_table.total_events();
  for (const Layer& layer : portfolio.layers) {
    counts.events_fetched += total_events;
    counts.elt_lookups += layer.elts.size() * total_events;
    counts.financial_applications += layer.elts.size() * total_events;
    counts.layer_term_applications += 2 * total_events;
  }
  return counts;
}

}  // namespace are::core
