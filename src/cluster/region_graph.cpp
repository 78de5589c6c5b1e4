#include "cluster/region_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/contracts.h"

namespace avcp::cluster {

RegionGraph::RegionGraph(std::size_t num_regions)
    : num_regions_(num_regions),
      gamma_(num_regions * num_regions, 0.0),
      neighbor_lists_(num_regions) {
  AVCP_EXPECT(num_regions >= 1);
}

double RegionGraph::gamma(RegionId i, RegionId j) const {
  AVCP_EXPECT(i < num_regions_ && j < num_regions_);
  return gamma_[static_cast<std::size_t>(i) * num_regions_ + j];
}

std::span<const RegionId> RegionGraph::neighbors(RegionId i) const {
  AVCP_EXPECT(finalized_);
  AVCP_EXPECT(i < num_regions_);
  return neighbor_lists_[i];
}

std::size_t RegionGraph::num_edges() const noexcept {
  std::size_t edges = 0;
  for (std::size_t i = 0; i < num_regions_; ++i) {
    for (std::size_t j = i + 1; j < num_regions_; ++j) {
      if (gamma_[i * num_regions_ + j] > 0.0) ++edges;
    }
  }
  return edges;
}

void RegionGraph::rescale_max(double target_max) {
  AVCP_EXPECT(target_max > 0.0);
  const double current = *std::max_element(gamma_.begin(), gamma_.end());
  if (current <= 0.0) return;
  const double scale = target_max / current;
  for (double& g : gamma_) g *= scale;
}

void RegionGraph::accumulate(RegionId i, RegionId j, double weight) {
  AVCP_EXPECT(i < num_regions_ && j < num_regions_);
  AVCP_EXPECT(weight >= 0.0);
  gamma_[static_cast<std::size_t>(i) * num_regions_ + j] += weight;
  if (i != j) {
    gamma_[static_cast<std::size_t>(j) * num_regions_ + i] += weight;
  }
}

void RegionGraph::finalize(double normalizer) {
  AVCP_EXPECT(normalizer > 0.0);
  for (double& g : gamma_) g /= normalizer;
  for (std::size_t i = 0; i < num_regions_; ++i) {
    neighbor_lists_[i].clear();
    for (std::size_t j = 0; j < num_regions_; ++j) {
      if (i != j && gamma_[i * num_regions_ + j] > 0.0) {
        neighbor_lists_[i].push_back(static_cast<RegionId>(j));
      }
    }
  }
  finalized_ = true;
}

RegionGraphAccumulator::RegionGraphAccumulator(const RegionGraphInputs& inputs)
    : inputs_(inputs),
      num_windows_(static_cast<std::size_t>(
          std::ceil(inputs.duration_s / inputs.window_s))) {
  AVCP_EXPECT(inputs.num_regions >= 1);
  AVCP_EXPECT(inputs.num_cells >= 1);
  AVCP_EXPECT(inputs.window_s > 0.0);
  AVCP_EXPECT(inputs.duration_s > 0.0);
}

void RegionGraphAccumulator::add(const trace::GpsFix& fix) {
  AVCP_EXPECT(fix.segment < inputs_.region_of_segment.size());
  AVCP_EXPECT(fix.time_s >= 0.0);  // false for NaN too
  // Range-check the quotient as a double: casting one beyond size_t is
  // undefined.
  const double window = fix.time_s / inputs_.window_s;
  if (window >= static_cast<double>(num_windows_)) return;
  presence_.push_back(Presence{static_cast<std::size_t>(window), fix.time_s,
                               fix.vehicle, fix.segment});
}

RegionGraph RegionGraphAccumulator::build() {
  // Bucket the records by window: a counting sort over their indices.
  std::vector<std::size_t> window_end(num_windows_ + 1, 0);
  for (const Presence& p : presence_) ++window_end[p.window + 1];
  std::partial_sum(window_end.begin(), window_end.end(), window_end.begin());
  std::vector<std::size_t> order(presence_.size());
  for (std::size_t r = 0; r < presence_.size(); ++r) {
    order[window_end[presence_[r].window]++] = r;
  }
  // window_end[w] is now where window w's indices end.

  RegionGraph graph(inputs_.num_regions);
  std::vector<Presence> window;      // one window's records
  std::vector<std::uint64_t> keys;   // (cell, region) of its presences
  std::vector<std::pair<RegionId, double>> counts;  // one cell's regions
  counts.reserve(inputs_.num_regions);
  std::size_t begin = 0;
  for (std::size_t w = 0; w < num_windows_; begin = window_end[w++]) {
    window.clear();
    for (std::size_t o = begin; o < window_end[w]; ++o) {
      window.push_back(presence_[order[o]]);
    }
    // Each vehicle's fixes by time: its presence is its earliest fix in the
    // window (ties to the lowest segment), whatever the arrival order.
    std::sort(window.begin(), window.end(),
              [](const Presence& a, const Presence& b) {
                return std::tie(a.vehicle, a.time_s, a.segment) <
                       std::tie(b.vehicle, b.time_s, b.segment);
              });
    keys.clear();
    for (std::size_t r = 0; r < window.size(); ++r) {
      if (r > 0 && window[r].vehicle == window[r - 1].vehicle) continue;
      const roadnet::SegmentId s = window[r].segment;
      keys.push_back((std::uint64_t{inputs_.cell_of_segment[s]} << 32) |
                     inputs_.region_of_segment[s]);
    }
    // By (cell, region): occupied cells ascending, each with its regions
    // ascending.
    std::sort(keys.begin(), keys.end());
    for (std::size_t k = 0; k < keys.size();) {
      counts.clear();
      const std::uint64_t cell = keys[k] >> 32;
      for (; k < keys.size() && keys[k] >> 32 == cell; ++k) {
        const auto region = static_cast<RegionId>(keys[k]);
        if (counts.empty() || counts.back().first != region) {
          counts.emplace_back(region, 0.0);
        }
        counts.back().second += 1.0;
      }
      for (std::size_t a = 0; a < counts.size(); ++a) {
        const auto [i, n_i] = counts[a];
        // Inner-region pairs: n * (n - 1) / 2.
        graph.accumulate(i, i, n_i * (n_i - 1.0) / 2.0);
        for (std::size_t b = a + 1; b < counts.size(); ++b) {
          graph.accumulate(i, counts[b].first, n_i * counts[b].second);
        }
      }
    }
  }
  graph.finalize(inputs_.duration_s);
  return graph;
}

RegionGraph build_region_graph(std::span<const trace::GpsFix> fixes,
                               const RegionGraphInputs& inputs) {
  RegionGraphAccumulator accumulator(inputs);
  for (const trace::GpsFix& fix : fixes) accumulator.add(fix);
  return accumulator.build();
}

}  // namespace avcp::cluster
