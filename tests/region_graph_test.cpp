#include "cluster/region_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "sim/pipeline.h"

namespace avcp::cluster {
namespace {

TEST(RegionGraph, AccumulateIsSymmetric) {
  RegionGraph g(3);
  g.accumulate(0, 1, 2.0);
  g.accumulate(1, 2, 4.0);
  g.finalize(1.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.gamma(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.gamma(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 2), 0.0);
}

TEST(RegionGraph, SelfAccumulateCountsOnce) {
  RegionGraph g(2);
  g.accumulate(0, 0, 3.0);
  g.finalize(1.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 0), 3.0);
}

TEST(RegionGraph, FinalizeNormalizes) {
  RegionGraph g(2);
  g.accumulate(0, 1, 10.0);
  g.finalize(5.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 1), 2.0);
}

TEST(RegionGraph, NeighborsExcludeSelfAndZeroEdges) {
  RegionGraph g(4);
  g.accumulate(0, 0, 5.0);
  g.accumulate(0, 2, 1.0);
  g.finalize(1.0);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0[0], 2u);
  EXPECT_TRUE(g.neighbors(1).empty());
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(RegionGraph, NeighborsBeforeFinalizeRejected) {
  RegionGraph g(2);
  EXPECT_THROW(g.neighbors(0), ContractViolation);
}

TEST(RegionGraph, RescaleMax) {
  RegionGraph g(2);
  g.accumulate(0, 1, 4.0);
  g.accumulate(0, 0, 2.0);
  g.finalize(1.0);
  g.rescale_max(1.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 0), 0.5);
}

TEST(RegionGraph, RescaleOnAllZeroIsNoop) {
  RegionGraph g(2);
  g.finalize(1.0);
  g.rescale_max(1.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 1), 0.0);
}

TEST(BuildRegionGraph, CountsCoPresencePairsExactly) {
  // 2 segments, segment 0 -> region 0, segment 1 -> region 1; both segments
  // in cell 0. Window = 10 s, duration = 20 s.
  const std::vector<RegionId> region_of = {0, 1};
  const std::vector<spatial::ServerId> cell_of = {0, 0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 2;
  inputs.num_cells = 1;
  inputs.window_s = 10.0;
  inputs.duration_s = 20.0;

  // Window 0: vehicles 1, 2 on segment 0 (region 0); vehicle 3 on segment 1
  // (region 1). Pairs: inner region0 = 1, cross = 2*1 = 2.
  // Window 1: vehicle 1 on segment 1 only. No pairs.
  const std::vector<trace::GpsFix> fixes = {
      {1, 1.0, {}, 0.0, 0}, {2, 2.0, {}, 0.0, 0}, {3, 3.0, {}, 0.0, 1},
      {1, 5.0, {}, 0.0, 0},  // duplicate presence of vehicle 1: ignored
      {1, 12.0, {}, 0.0, 1},
  };
  const RegionGraph g = build_region_graph(fixes, inputs);
  // Rates = pair counts / duration.
  EXPECT_DOUBLE_EQ(g.gamma(0, 0), 1.0 / 20.0);
  EXPECT_DOUBLE_EQ(g.gamma(0, 1), 2.0 / 20.0);
  EXPECT_DOUBLE_EQ(g.gamma(1, 1), 0.0);
}

TEST(BuildRegionGraph, SeparateCellsDoNotPair) {
  // Same regions but the two segments are covered by different servers:
  // vehicles cannot exchange data, so no cross-region gamma.
  const std::vector<RegionId> region_of = {0, 1};
  const std::vector<spatial::ServerId> cell_of = {0, 1};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 2;
  inputs.num_cells = 2;
  inputs.window_s = 10.0;
  inputs.duration_s = 10.0;

  const std::vector<trace::GpsFix> fixes = {
      {1, 1.0, {}, 0.0, 0},
      {2, 2.0, {}, 0.0, 1},
  };
  const RegionGraph g = build_region_graph(fixes, inputs);
  EXPECT_DOUBLE_EQ(g.gamma(0, 1), 0.0);
}

TEST(BuildRegionGraph, VehicleCountedOncePerWindow) {
  const std::vector<RegionId> region_of = {0};
  const std::vector<spatial::ServerId> cell_of = {0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 1;
  inputs.num_cells = 1;
  inputs.window_s = 10.0;
  inputs.duration_s = 10.0;

  // One vehicle reporting 5 times: zero pairs.
  std::vector<trace::GpsFix> fixes;
  for (int i = 0; i < 5; ++i) {
    fixes.push_back({9, static_cast<double>(i), {}, 0.0, 0});
  }
  const RegionGraph g = build_region_graph(fixes, inputs);
  EXPECT_DOUBLE_EQ(g.gamma(0, 0), 0.0);
}

TEST(BuildRegionGraph, ThreeVehiclesInnerPairs) {
  const std::vector<RegionId> region_of = {0};
  const std::vector<spatial::ServerId> cell_of = {0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 1;
  inputs.num_cells = 1;
  inputs.window_s = 10.0;
  inputs.duration_s = 10.0;

  const std::vector<trace::GpsFix> fixes = {
      {1, 0.0, {}, 0.0, 0}, {2, 0.0, {}, 0.0, 0}, {3, 0.0, {}, 0.0, 0}};
  const RegionGraph g = build_region_graph(fixes, inputs);
  // 3 choose 2 = 3 pairs over 10 s.
  EXPECT_DOUBLE_EQ(g.gamma(0, 0), 0.3);
}

TEST(BuildRegionGraph, EarliestFixCountsWhateverTheArrivalOrder) {
  // Segment s lies in region s; both segments in cell 0. Vehicle 1 reports
  // twice in window 0, first in region 0 and later in region 1; vehicle 2
  // sits in region 0. The earliest fix places vehicle 1, so the pair is
  // inner-region whichever of its fixes arrives first.
  const std::vector<RegionId> region_of = {0, 1};
  const std::vector<spatial::ServerId> cell_of = {0, 0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 2;
  inputs.num_cells = 1;
  inputs.window_s = 10.0;
  inputs.duration_s = 20.0;

  const trace::GpsFix early{1, 1.0, {}, 0.0, 0};
  const trace::GpsFix late{1, 5.0, {}, 0.0, 1};
  const trace::GpsFix other{2, 2.0, {}, 0.0, 0};
  for (const auto& fixes : {std::vector{early, late, other},
                            std::vector{late, early, other}}) {
    const RegionGraph g = build_region_graph(fixes, inputs);
    EXPECT_DOUBLE_EQ(g.gamma(0, 0), 1.0 / 20.0);
    EXPECT_DOUBLE_EQ(g.gamma(0, 1), 0.0);
  }

  // Equal times tie to the lowest segment, again in either order.
  const trace::GpsFix tie_low{1, 3.0, {}, 0.0, 0};
  const trace::GpsFix tie_high{1, 3.0, {}, 0.0, 1};
  for (const auto& fixes : {std::vector{tie_high, tie_low, other},
                            std::vector{tie_low, tie_high, other}}) {
    const RegionGraph g = build_region_graph(fixes, inputs);
    EXPECT_DOUBLE_EQ(g.gamma(0, 0), 1.0 / 20.0);
    EXPECT_DOUBLE_EQ(g.gamma(0, 1), 0.0);
  }
}

TEST(BuildRegionGraph, RejectsNegativeOrNanTimesAndSkipsTimesPastTheSpan) {
  const std::vector<RegionId> region_of = {0};
  const std::vector<spatial::ServerId> cell_of = {0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 1;
  inputs.num_cells = 1;
  inputs.window_s = 10.0;
  inputs.duration_s = 20.0;

  RegionGraphAccumulator accumulator(inputs);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double t : {-5.0, -25.0, kNan}) {
    EXPECT_THROW(accumulator.add({1, t, {}, 0.0, 0}), ContractViolation)
        << "time " << t;
  }
  // Two vehicles at each time: counted in any window, they would pair.
  for (const double t : {1e300, std::numeric_limits<double>::infinity(),
                         inputs.duration_s}) {
    accumulator.add({1, t, {}, 0.0, 0});
    accumulator.add({2, t, {}, 0.0, 0});
  }
  EXPECT_EQ(accumulator.build().gamma(0, 0), 0.0);
}

TEST(BuildRegionGraph, RejectsInconsistentInputs) {
  // Three segments: regions {0, 1, 1} of 2, cells {0, 1, 0} of 2.
  const std::vector<RegionId> region_of = {0, 1, 1};
  const std::vector<spatial::ServerId> cell_of = {0, 1, 0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 2;
  inputs.num_cells = 2;
  inputs.window_s = 10.0;
  inputs.duration_s = 20.0;
  EXPECT_NO_THROW(RegionGraphAccumulator{inputs});

  // A cell table shorter than the region table: a fix on segment 2 would
  // read past its end.
  const std::vector<spatial::ServerId> short_cells = {0, 1};
  RegionGraphInputs bad = inputs;
  bad.cell_of_segment = short_cells;
  EXPECT_THROW(RegionGraphAccumulator{bad}, ContractViolation) << "lengths";

  // A cell id at num_cells.
  const std::vector<spatial::ServerId> wide_cells = {0, 2, 0};
  bad = inputs;
  bad.cell_of_segment = wide_cells;
  EXPECT_THROW(RegionGraphAccumulator{bad}, ContractViolation) << "cell id";

  // A region id at num_regions, caught before any fix streams in.
  const std::vector<RegionId> wide_regions = {0, 2, 1};
  bad = inputs;
  bad.region_of_segment = wide_regions;
  EXPECT_THROW(RegionGraphAccumulator{bad}, ContractViolation) << "region id";
}

TEST(BuildRegionGraph, BuildRunsOnce) {
  const std::vector<RegionId> region_of = {0};
  const std::vector<spatial::ServerId> cell_of = {0};
  RegionGraphInputs inputs;
  inputs.region_of_segment = region_of;
  inputs.cell_of_segment = cell_of;
  inputs.num_regions = 1;
  inputs.num_cells = 1;
  inputs.window_s = 10.0;
  inputs.duration_s = 10.0;
  RegionGraphAccumulator accumulator(inputs);
  accumulator.add({1, 0.0, {}, 0.0, 0});
  accumulator.add({2, 1.0, {}, 0.0, 0});
  EXPECT_EQ(accumulator.build().gamma(0, 0), 0.1);
  accumulator.add({3, 2.0, {}, 0.0, 0});  // skipped
  EXPECT_THROW(accumulator.build(), ContractViolation);
}

/// The accumulator's build() before it counted instead of sorting, kept as
/// the oracle: bucket the in-span fixes by window, sort each window by
/// (vehicle, time, segment), take each vehicle's first fix, sort those by
/// (cell, region), and add every cell's n_i * (n_i - 1) / 2 and n_i * n_j
/// terms to the graph one by one as doubles.
RegionGraph reference_region_graph(std::span<const trace::GpsFix> fixes,
                                   const RegionGraphInputs& inputs) {
  struct Presence {
    std::size_t window;
    double time_s;
    trace::VehicleId vehicle;
    roadnet::SegmentId segment;
  };
  const auto num_windows = static_cast<std::size_t>(
      std::ceil(inputs.duration_s / inputs.window_s));
  std::vector<std::vector<Presence>> windows(num_windows);
  for (const trace::GpsFix& fix : fixes) {
    const double window = fix.time_s / inputs.window_s;
    if (window >= static_cast<double>(num_windows)) continue;
    windows[static_cast<std::size_t>(window)].push_back(
        Presence{static_cast<std::size_t>(window), fix.time_s, fix.vehicle,
                 fix.segment});
  }
  RegionGraph graph(inputs.num_regions);
  std::vector<std::uint64_t> keys;
  std::vector<std::pair<RegionId, double>> counts;
  for (std::vector<Presence>& window : windows) {
    std::sort(window.begin(), window.end(),
              [](const Presence& a, const Presence& b) {
                return std::tie(a.vehicle, a.time_s, a.segment) <
                       std::tie(b.vehicle, b.time_s, b.segment);
              });
    keys.clear();
    for (std::size_t r = 0; r < window.size(); ++r) {
      if (r > 0 && window[r].vehicle == window[r - 1].vehicle) continue;
      const roadnet::SegmentId s = window[r].segment;
      keys.push_back((std::uint64_t{inputs.cell_of_segment[s]} << 32) |
                     inputs.region_of_segment[s]);
    }
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
        graph.accumulate(i, i, n_i * (n_i - 1.0) / 2.0);
        for (std::size_t b = a + 1; b < counts.size(); ++b) {
          graph.accumulate(i, counts[b].first, n_i * counts[b].second);
        }
      }
    }
  }
  graph.finalize(inputs.duration_s);
  return graph;
}

void expect_same_bits(const RegionGraph& got, const RegionGraph& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_regions(), want.num_regions()) << what;
  for (RegionId i = 0; i < got.num_regions(); ++i) {
    for (RegionId j = 0; j < got.num_regions(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.gamma(i, j)),
                std::bit_cast<std::uint64_t>(want.gamma(i, j)))
          << what << ": gamma(" << i << ", " << j << ")";
    }
    EXPECT_TRUE(std::ranges::equal(got.neighbors(i), want.neighbors(i)))
        << what << ": neighbours of " << i;
  }
}

// Oracle pair: the counting build() gives the reference's gamma bits on a
// generated trace fed in generator order (the order that skips the sort),
// shuffled and reversed, and with the edge cases the generator never
// emits added: duplicate and repeated (vehicle, window) fixes, equal times
// on different segments, fixes exactly on window boundaries and at or past
// the end of the span.
TEST(BuildRegionGraph, CountingBuildMatchesSortedReference) {
  sim::PipelineConfig config;
  config.city.rows = 8;
  config.city.cols = 10;
  config.city.seed = 21;
  config.traces.num_vehicles = 60;
  config.traces.duration_s = 1800.0;
  config.traces.seed = 22;
  config.num_servers = 9;
  config.num_regions = 5;
  const sim::PipelineArtifacts a = sim::build_pipeline(config);
  ASSERT_GT(a.fixes.size(), 1000u);
  RegionGraphInputs inputs;
  inputs.region_of_segment = a.clustering.region_of;
  inputs.cell_of_segment = a.cell_of_segment;
  inputs.num_regions = config.num_regions;
  inputs.num_cells = config.num_servers;
  inputs.window_s = config.traces.fix_interval_s;
  inputs.duration_s = config.traces.duration_s;
  const auto num_segments =
      static_cast<roadnet::SegmentId>(a.graph.num_segments());

  const auto check = [&](const std::vector<trace::GpsFix>& fixes,
                         const std::string& what) {
    expect_same_bits(build_region_graph(fixes, inputs),
                     reference_region_graph(fixes, inputs), what);
  };
  check(a.fixes, "generator order");

  std::vector<trace::GpsFix> shuffled = a.fixes;
  Rng rng(5);
  rng.shuffle(shuffled);
  check(shuffled, "shuffled");
  check(std::vector<trace::GpsFix>(a.fixes.rbegin(), a.fixes.rend()),
        "reversed");

  // Edge cases, appended to the generated trace and then also shuffled.
  std::vector<trace::GpsFix> edges = a.fixes;
  for (std::size_t k = 0; k < a.fixes.size(); k += 97) {
    trace::GpsFix fix = a.fixes[k];
    edges.push_back(fix);  // an exact duplicate
    fix.time_s = std::floor(fix.time_s / inputs.window_s) * inputs.window_s;
    fix.segment = (fix.segment + 1 + static_cast<roadnet::SegmentId>(k)) %
                  num_segments;
    edges.push_back(fix);  // earlier in the same window, on a boundary
    fix.segment = (fix.segment + 5) % num_segments;
    edges.push_back(fix);  // the same time on another segment
    fix.time_s += inputs.window_s;  // the next window's boundary
    edges.push_back(fix);
  }
  for (trace::VehicleId v = 1000; v < 1040; ++v) {
    // Newcomers stacked into a few windows and cells, ties included.
    const auto seg = static_cast<roadnet::SegmentId>((v * 13) % num_segments);
    const double t = inputs.window_s * static_cast<double>(v % 7);
    edges.push_back({v, t, {}, 0.0, seg});
    edges.push_back({v, t, {}, 0.0, (seg + 1) % num_segments});
    edges.push_back({v, t + 0.5, {}, 0.0, (seg + 2) % num_segments});
    // At and past the end of the span: never counted.
    edges.push_back({v, inputs.duration_s, {}, 0.0, seg});
    edges.push_back({v, inputs.duration_s + 3.0, {}, 0.0, seg});
    edges.push_back(
        {v, std::numeric_limits<double>::infinity(), {}, 0.0, seg});
  }
  check(edges, "edge cases appended");
  rng.shuffle(edges);
  check(edges, "edge cases shuffled");
}

}  // namespace
}  // namespace avcp::cluster
