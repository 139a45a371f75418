#include "yet/year_event_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/fork_join.hpp"

namespace are::yet {

namespace {

/// Fewest occurrences worth a trial-order range of their own; below this a
/// thread costs more than the part of the scan it would take over.
constexpr std::size_t kMinEventsPerRange = std::size_t{1} << 18;

}  // namespace

YearEventTable::YearEventTable(std::vector<EventId> events, std::vector<float> times,
                               std::vector<std::uint64_t> offsets)
    : events_(std::move(events)), times_(std::move(times)), offsets_(std::move(offsets)) {
  if (offsets_.empty()) throw std::invalid_argument("YET offsets must contain at least [0]");
  if (offsets_.front() != 0) throw std::invalid_argument("YET offsets must start at 0");
  if (offsets_.back() != events_.size()) {
    throw std::invalid_argument("YET offsets must end at the event count");
  }
  if (times_.size() != events_.size()) {
    throw std::invalid_argument("YET event and time vectors must have equal length");
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      throw std::invalid_argument("YET offsets must be non-decreasing");
    }
  }
  // The trial-order check reads every timestamp, so it runs over trial
  // ranges in parallel; any failing range throws the one error below.
  const std::size_t trials = offsets_.size() - 1;
  const std::size_t ranges =
      std::clamp<std::size_t>(events_.size() / kMinEventsPerRange, 1, parallel::hardware_threads());
  parallel::fork_join(ranges, ranges, [&](std::size_t range) {
    const std::size_t last = trials * (range + 1) / ranges;
    for (std::size_t trial = trials * range / ranges; trial < last; ++trial) {
      for (std::uint64_t k = offsets_[trial] + 1; k < offsets_[trial + 1]; ++k) {
        if (times_[k] < times_[k - 1]) {
          throw std::invalid_argument("YET trial occurrences must be time-ordered");
        }
      }
    }
  });
}

}  // namespace are::yet
