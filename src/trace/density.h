// Traffic density (Eq. (3)): vehicles traversing each road segment per
// time window.
//
// TD_i = (# vehicles travelling through u_i during [t_s, t_e)) / (t_e - t_s).
//
// The accumulator is streaming: it consumes fixes in any vehicle
// interleaving as long as each individual vehicle's fixes arrive in time
// order (what TraceGenerator produces). A vehicle is counted once per
// contiguous stay in a (segment, window); leaving and re-entering within the
// same window counts again, matching the "travelling through" semantics.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/types.h"

namespace avcp::trace {

class TrafficDensityAccumulator {
 public:
  /// `num_segments` sizes the per-window counters; `window_s` is the
  /// aggregation window (the paper uses 10 minutes); `duration_s` bounds
  /// the trace span.
  TrafficDensityAccumulator(std::size_t num_segments, double window_s,
                            double duration_s);

  /// Consumes one fix. Fixes of the same vehicle must be time-ordered;
  /// negative and NaN times are rejected, and times at or beyond the last
  /// window (infinity included) are skipped.
  void add(const GpsFix& fix);

  std::size_t num_windows() const noexcept { return counts_.size(); }
  std::size_t num_segments() const noexcept { return num_segments_; }
  double window_s() const noexcept { return window_s_; }

  /// Raw traversal count of `segment` in `window`.
  std::uint32_t count(std::size_t window, roadnet::SegmentId segment) const;

  /// TD of one segment in one window: count / window length (vehicles/s).
  double density(std::size_t window, roadnet::SegmentId segment) const;

  /// Per-segment TD averaged over all windows — the utility-coefficient
  /// input for TD-based clustering (paper §V-A averages TD over one day).
  std::vector<double> average_density() const;

  /// Per-segment total traversal counts over the whole trace.
  std::vector<std::uint32_t> total_counts() const;

 private:
  struct LastSeen {
    std::size_t window = ~std::size_t{0};
    roadnet::SegmentId segment = roadnet::kInvalidSegment;
  };

  std::size_t num_segments_;
  double window_s_;
  std::vector<std::vector<std::uint32_t>> counts_;  // [window][segment]
  std::unordered_map<VehicleId, LastSeen> last_seen_;
};

}  // namespace avcp::trace
