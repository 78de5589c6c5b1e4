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
    : inputs_(inputs) {
  AVCP_EXPECT(inputs.num_regions >= 1);
  AVCP_EXPECT(inputs.num_cells >= 1);
  AVCP_EXPECT(inputs.window_s > 0.0);
  AVCP_EXPECT(inputs.duration_s > 0.0);
  // build() indexes a cells x regions table by each fix's segment, so
  // every segment needs a cell and a region inside it.
  AVCP_EXPECT(inputs.cell_of_segment.size() ==
              inputs.region_of_segment.size());
  for (const spatial::ServerId cell : inputs.cell_of_segment) {
    AVCP_EXPECT(cell < inputs.num_cells);
  }
  for (const RegionId region : inputs.region_of_segment) {
    AVCP_EXPECT(region < inputs.num_regions);
  }
  // Range-check the count as a double: casting one beyond size_t is
  // undefined, and build() counts windows in 32 bits.
  const double windows = std::ceil(inputs.duration_s / inputs.window_s);
  AVCP_EXPECT(windows < 0x1p32);
  num_windows_ = static_cast<std::size_t>(windows);
  window_end_.assign(num_windows_ + 1, 0);
}

void RegionGraphAccumulator::add(const trace::GpsFix& fix) {
  AVCP_EXPECT(fix.segment < inputs_.region_of_segment.size());
  AVCP_EXPECT(fix.time_s >= 0.0);  // false for NaN too
  // Range-check the quotient as a double: casting one beyond size_t is
  // undefined.
  const double window = fix.time_s / inputs_.window_s;
  if (window >= static_cast<double>(num_windows_)) return;
  ++window_end_[static_cast<std::size_t>(window) + 1];
  if (num_records_ % kBlockSize == 0) {
    blocks_.emplace_back().reserve(kBlockSize);
  }
  blocks_.back().push_back(Presence{fix.time_s, fix.vehicle, fix.segment});
  ++num_records_;
}

RegionGraph RegionGraphAccumulator::build() {
  AVCP_EXPECT(!window_end_.empty());  // build() runs once
  // Records are indexed, and windows counted, in 32 bits below.
  AVCP_EXPECT(num_records_ < (std::size_t{1} << 32));
  // Later add() calls find no window left, and skip.
  const std::size_t num_windows = std::exchange(num_windows_, 0);
  // Bucket the records by window: a stable counting sort over their
  // indices, from the counts add() kept, each record's window derived again
  // by add()'s division.
  std::vector<std::uint32_t> window_end = std::move(window_end_);
  window_end_.clear();
  std::partial_sum(window_end.begin(), window_end.end(), window_end.begin());
  std::vector<std::uint32_t> order(num_records_);
  std::uint32_t r = 0;
  for (const std::vector<Presence>& block : blocks_) {
    for (const Presence& p : block) {
      const auto w = static_cast<std::size_t>(p.time_s / inputs_.window_s);
      order[window_end[w]++] = r++;
    }
  }
  // window_end[w] is now where window w's indices end.

  // A window's presences are counted per (cell, region) into a dense
  // table: count[c * R + i] vehicles of region i in cell c, whose distinct
  // regions are listed in regions_in[c * R ..] in first-seen order.
  // Each window then adds its pair counts to pairs (upper triangle, i <= j)
  // as integers.
  const std::size_t num_regions = inputs_.num_regions;
  const std::size_t table = inputs_.num_cells * num_regions;
  std::vector<std::uint32_t> count(table, 0);
  std::vector<RegionId> regions_in(table);
  std::vector<std::uint32_t> distinct(inputs_.num_cells, 0);
  std::vector<std::size_t> touched;  // cells with a presence this window
  std::vector<std::uint64_t> pairs(num_regions * num_regions, 0);
  // By (vehicle, time, segment), through the records' indices.
  const auto by_vehicle_time = [this](std::uint32_t a, std::uint32_t b) {
    const Presence& x = record(a);
    const Presence& y = record(b);
    return std::tie(x.vehicle, x.time_s, x.segment) <
           std::tie(y.vehicle, y.time_s, y.segment);
  };
  auto first = order.begin();
  for (std::size_t w = 0; w < num_windows;
       first = order.begin() + window_end[w++]) {
    const auto last = order.begin() + window_end[w];
    // Each vehicle's fixes by time: its presence is its earliest fix in the
    // window (ties to the lowest segment), whatever the arrival order. A
    // trace fed vehicle by vehicle in time order, as the generator emits
    // it, arrives sorted (the bucketing is stable), so only other orders
    // pay for the sort.
    if (!std::is_sorted(first, last, by_vehicle_time)) {
      std::sort(first, last, by_vehicle_time);
    }
    for (auto it = first; it != last; ++it) {
      const Presence& p = record(*it);
      if (it != first && p.vehicle == record(*(it - 1)).vehicle) continue;
      const std::size_t cell = inputs_.cell_of_segment[p.segment];
      const RegionId region = inputs_.region_of_segment[p.segment];
      if (distinct[cell] == 0) touched.push_back(cell);
      if (count[cell * num_regions + region]++ == 0) {
        regions_in[cell * num_regions + distinct[cell]++] = region;
      }
    }
    for (const std::size_t cell : touched) {
      const std::uint32_t* n = &count[cell * num_regions];
      const RegionId* regions = &regions_in[cell * num_regions];
      for (std::uint32_t a = 0; a < distinct[cell]; ++a) {
        const RegionId i = regions[a];
        const std::uint64_t n_i = n[i];
        // Inner-region pairs: n * (n - 1) / 2.
        pairs[i * num_regions + i] += n_i * (n_i - 1) / 2;
        for (std::uint32_t b = a + 1; b < distinct[cell]; ++b) {
          const RegionId j = regions[b];
          pairs[std::min(i, j) * num_regions + std::max(i, j)] += n_i * n[j];
        }
      }
      for (std::uint32_t a = 0; a < distinct[cell]; ++a) {
        count[cell * num_regions + regions[a]] = 0;
      }
      distinct[cell] = 0;
    }
    touched.clear();
  }

  // Every gamma term is an integer, n_i * n_j or n * (n - 1) / 2. Summed
  // as doubles in any order, such terms give the exact integer total while
  // it stays below 2^53, so handing each total over once gives the bits a
  // term-by-term double sum gives. (With fewer than 2^32 records the
  // integer totals themselves cannot overflow.)
  RegionGraph graph(num_regions);
  for (std::size_t i = 0; i < num_regions; ++i) {
    for (std::size_t j = i; j < num_regions; ++j) {
      const std::uint64_t total = pairs[i * num_regions + j];
      if (total == 0) continue;
      AVCP_ENSURE(total < (std::uint64_t{1} << 53));
      graph.accumulate(static_cast<RegionId>(i), static_cast<RegionId>(j),
                       static_cast<double>(total));
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
