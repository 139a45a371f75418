#include "io/csv.hpp"

#include <ostream>

namespace are::io {

void write_ylt_csv(std::ostream& out, const core::YearLossTable& ylt) {
  out << "trial";
  for (std::uint32_t id : ylt.layer_ids()) out << ",layer_" << id;
  out << '\n';
  for (std::size_t trial = 0; trial < ylt.num_trials(); ++trial) {
    out << trial;
    for (std::size_t layer = 0; layer < ylt.num_layers(); ++layer) {
      out << ',' << ylt.at(layer, trial);
    }
    out << '\n';
  }
}

void write_ylt_csv(std::ostream& out, shard::ShardedYearLossTable& ylt) {
  out << "trial";
  for (std::uint32_t id : ylt.layer_ids()) out << ",layer_" << id;
  out << '\n';
  ylt.for_each_shard([&](shard::ShardedYearLossTable::ShardView& view) {
    for (std::size_t i = 0; i < view.trials(); ++i) {
      out << view.trial_begin() + i;
      for (std::size_t layer = 0; layer < ylt.num_layers(); ++layer) {
        out << ',' << view.layer_losses(layer)[i];
      }
      out << '\n';
    }
  });
}

void write_ep_csv(std::ostream& out, const std::vector<metrics::EpPoint>& points) {
  out << "return_period,probability,loss\n";
  for (const metrics::EpPoint& point : points) {
    out << point.return_period << ',' << point.probability << ',' << point.loss << '\n';
  }
}

}  // namespace are::io
