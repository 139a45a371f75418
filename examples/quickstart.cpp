// Quickstart: build a small synthetic book, run aggregate analysis, and
// report the layer's risk metrics — the whole pipeline in ~60 lines.
//
//   $ ./quickstart
//
#include <cstdio>
#include <memory>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "metrics/ep_curve.hpp"
#include "pricing/pricing.hpp"
#include "yet/generator.hpp"

int main() {
  using namespace are;

  // 1. A Year Event Table: 20,000 alternative views of one contractual
  //    year, ~1000 event occurrences each, over a 100K-event catalog.
  constexpr std::size_t kCatalogSize = 100'000;
  yet::YetConfig yet_config;
  yet_config.num_trials = 20'000;
  yet_config.events_per_trial = 1000.0;
  yet_config.count_model = yet::CountModel::kPoisson;
  const yet::YearEventTable year_event_table = yet::generate_uniform_yet(yet_config, kCatalogSize);

  // 2. A layer covering 5 ELTs under Cat XL + aggregate terms.
  core::Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 10e6;
  layer.terms.occurrence_limit = 40e6;
  layer.terms.aggregate_retention = 20e6;
  layer.terms.aggregate_limit = 120e6;
  for (std::uint64_t e = 0; e < 5; ++e) {
    elt::SyntheticEltConfig elt_config;
    elt_config.catalog_size = kCatalogSize;
    elt_config.entries = 8'000;
    elt_config.elt_id = e;
    const elt::EventLossTable table = elt::make_synthetic_elt(elt_config);
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, table, kCatalogSize);
    layer_elt.terms.occurrence_retention = 100e3;
    layer_elt.terms.share = 0.8;
    layer.elts.push_back(std::move(layer_elt));
  }

  core::Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));

  // 3. Aggregate analysis: YET x layer -> Year Loss Table, through the
  //    unified front door (the default config is the thread-pool engine;
  //    set AnalysisConfig::engine to pick one of the four schedules).
  const core::YearLossTable ylt = core::run({portfolio, year_event_table});

  // 4. Risk measures from the YLT.
  const metrics::EpCurve curve(ylt.layer_losses(0));
  std::printf("Aggregate analysis of %zu trials x %.0f events\n",
              year_event_table.num_trials(), year_event_table.mean_events_per_trial());
  std::printf("  expected annual ceded loss : %12.0f\n", curve.expected_loss());
  std::printf("  100-year PML               : %12.0f\n", curve.probable_maximum_loss(100.0));
  std::printf("  250-year PML               : %12.0f\n", curve.probable_maximum_loss(250.0));
  std::printf("  TVaR(99%%)                  : %12.0f\n", curve.tail_value_at_risk(0.99));

  // 5. A technical price for the layer.
  const pricing::Quote quote =
      pricing::price_layer(ylt.layer_losses(0), portfolio.layers[0].terms);
  std::printf("  quote: %s\n", pricing::describe(quote).c_str());
  return 0;
}
