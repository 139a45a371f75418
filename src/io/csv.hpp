#pragma once

#include <iosfwd>
#include <vector>

#include "core/year_loss_table.hpp"
#include "metrics/ep_curve.hpp"
#include "shard/sharded_ylt.hpp"

namespace are::io {

/// Writes a YLT as `trial,<layer_id>...` wide rows.
void write_ylt_csv(std::ostream& out, const core::YearLossTable& ylt);

/// Streams a sharded YLT as the same wide rows, one pinned shard at a time
/// (peak residency: one shard). Byte-identical output to write_ylt_csv of
/// the materialized table — what the CI sharded smoke leg diffs.
void write_ylt_csv(std::ostream& out, shard::ShardedYearLossTable& ylt);

/// Writes an EP table as `return_period,probability,loss` rows.
void write_ep_csv(std::ostream& out, const std::vector<metrics::EpPoint>& points);

}  // namespace are::io
