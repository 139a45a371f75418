#pragma once

#include "core/analysis.hpp"
#include "shard/sharded_ylt.hpp"

namespace are::shard {

/// The sharded front door, the out-of-core sibling of core::run(): builds a
/// ShardedYearLossTable from the request (layer ids from the portfolio,
/// trial count from the YET, shard size / spill dir / memory budget from
/// AnalysisConfig::sharding) and executes the engine through
/// core::run_to_sink, so finished trial-range blocks land directly in
/// their owning shards and the monolithic trials x layers buffer never
/// exists. For every engine, materialize() of the returned table is
/// byte-for-byte equal to core::run's YearLossTable — including runs whose
/// memory budget forced shards through a spill-and-restore cycle.
ShardedYearLossTable run_sharded(const core::AnalysisRequest& request);

}  // namespace are::shard
