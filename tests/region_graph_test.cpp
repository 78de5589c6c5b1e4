#include "cluster/region_graph.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/contracts.h"

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

}  // namespace
}  // namespace avcp::cluster
