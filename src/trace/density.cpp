#include "trace/density.h"

#include <cmath>

#include "common/contracts.h"

namespace avcp::trace {

TrafficDensityAccumulator::TrafficDensityAccumulator(std::size_t num_segments,
                                                     double window_s,
                                                     double duration_s)
    : num_segments_(num_segments), window_s_(window_s) {
  AVCP_EXPECT(num_segments > 0);
  AVCP_EXPECT(window_s > 0.0);
  AVCP_EXPECT(duration_s > 0.0);
  const auto windows =
      static_cast<std::size_t>(std::ceil(duration_s / window_s));
  counts_.assign(windows, std::vector<std::uint32_t>(num_segments, 0));
}

void TrafficDensityAccumulator::add(const GpsFix& fix) {
  AVCP_EXPECT(fix.segment < num_segments_);
  AVCP_EXPECT(fix.time_s >= 0.0);  // false for NaN too
  // Range-check the quotient as a double: casting one beyond size_t is
  // undefined.
  const double quotient = fix.time_s / window_s_;
  if (quotient >= static_cast<double>(counts_.size())) return;  // past span
  const auto window = static_cast<std::size_t>(quotient);

  LastSeen& last = last_seen_[fix.vehicle];
  if (last.window == window && last.segment == fix.segment) return;
  last.window = window;
  last.segment = fix.segment;
  ++counts_[window][fix.segment];
}

std::uint32_t TrafficDensityAccumulator::count(
    std::size_t window, roadnet::SegmentId segment) const {
  AVCP_EXPECT(window < counts_.size());
  AVCP_EXPECT(segment < num_segments_);
  return counts_[window][segment];
}

double TrafficDensityAccumulator::density(std::size_t window,
                                          roadnet::SegmentId segment) const {
  return static_cast<double>(count(window, segment)) / window_s_;
}

std::vector<double> TrafficDensityAccumulator::average_density() const {
  std::vector<double> avg(num_segments_, 0.0);
  if (counts_.empty()) return avg;
  for (const auto& window : counts_) {
    for (std::size_t s = 0; s < num_segments_; ++s) {
      avg[s] += static_cast<double>(window[s]);
    }
  }
  const double total_time = window_s_ * static_cast<double>(counts_.size());
  for (double& v : avg) v /= total_time;
  return avg;
}

std::vector<std::uint32_t> TrafficDensityAccumulator::total_counts() const {
  std::vector<std::uint32_t> totals(num_segments_, 0);
  for (const auto& window : counts_) {
    for (std::size_t s = 0; s < num_segments_; ++s) totals[s] += window[s];
  }
  return totals;
}

}  // namespace avcp::trace
