#include "trace/generator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>

#include "common/contracts.h"
#include "roadnet/builders.h"
#include "test_support.h"
#include "trace/density.h"
#include "trace/trace_io.h"

namespace avcp::trace {
namespace {

using roadnet::RoadGraph;

TraceParams small_params() {
  TraceParams params;
  params.num_vehicles = 20;
  params.duration_s = 1800.0;
  params.mean_dwell_s = 60.0;
  params.seed = 5;
  return params;
}

TEST(TraceGenerator, FixesRespectTimeBounds) {
  const RoadGraph g = roadnet::make_grid(5, 5, 200.0);
  const TraceGenerator gen(g, small_params());
  const auto fixes = gen.generate_all();
  ASSERT_FALSE(fixes.empty());
  for (const GpsFix& fix : fixes) {
    EXPECT_GE(fix.time_s, 0.0);
    EXPECT_LT(fix.time_s, small_params().duration_s);
    EXPECT_LT(fix.vehicle, small_params().num_vehicles);
    EXPECT_LT(fix.segment, g.num_segments());
  }
}

TEST(TraceGenerator, PerVehicleFixesAreTimeOrderedOnFixGrid) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const auto params = small_params();
  const TraceGenerator gen(g, params);
  const auto fixes = gen.generate_all();
  std::map<VehicleId, double> last_time;
  for (const GpsFix& fix : fixes) {
    const auto it = last_time.find(fix.vehicle);
    if (it != last_time.end()) {
      EXPECT_GE(fix.time_s, it->second);
      // Consecutive fixes are whole reporting intervals apart.
      const double gap = fix.time_s - it->second;
      const double intervals = gap / params.fix_interval_s;
      EXPECT_NEAR(intervals, std::round(intervals), 1e-6);
      EXPECT_GE(gap, params.fix_interval_s - 1e-9);
    }
    last_time[fix.vehicle] = fix.time_s;
  }
}

TEST(TraceGenerator, PositionsLieOnReportedSegment) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const TraceGenerator gen(g, small_params());
  const auto fixes = gen.generate_all();
  for (const GpsFix& fix : fixes) {
    const auto& seg = g.segment(fix.segment);
    const PointM a = g.intersection(seg.from);
    const PointM b = g.intersection(seg.to);
    // Distance from the segment's line, via the triangle inequality:
    // |a-p| + |p-b| should equal |a-b| for a point on the segment.
    const double detour =
        distance_m(a, fix.pos) + distance_m(fix.pos, b) - distance_m(a, b);
    EXPECT_NEAR(detour, 0.0, 1e-6);
  }
}

TEST(TraceGenerator, SpeedsWithinConfiguredFactorRange) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const auto params = small_params();
  const TraceGenerator gen(g, params);
  for (const GpsFix& fix : gen.generate_all()) {
    const auto& seg = g.segment(fix.segment);
    EXPECT_GE(fix.speed_mps, seg.speed_mps * params.speed_factor_lo - 1e-9);
    EXPECT_LE(fix.speed_mps, seg.speed_mps * params.speed_factor_hi + 1e-9);
  }
}

TEST(TraceGenerator, DeterministicForSeed) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const TraceGenerator gen(g, small_params());
  const auto a = gen.generate_all();
  const auto b = gen.generate_all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vehicle, b[i].vehicle);
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].segment, b[i].segment);
  }
}

TEST(TraceGenerator, AttractionFavoursArterials) {
  roadnet::CityParams city;
  city.rows = 6;
  city.cols = 6;
  city.arterial_period = 3;
  city.seed = 4;
  const RoadGraph g = roadnet::build_city(city);
  TraceParams params = small_params();
  params.num_vehicles = 60;
  params.duration_s = 3600.0;
  const TraceGenerator gen(g, params);

  // Count fixes per road class.
  double arterial_fixes = 0.0;
  double arterial_count = 0.0;
  double local_fixes = 0.0;
  double local_count = 0.0;
  std::vector<double> per_segment(g.num_segments(), 0.0);
  for (const GpsFix& fix : gen.generate_all()) per_segment[fix.segment] += 1.0;
  for (roadnet::SegmentId s = 0; s < g.num_segments(); ++s) {
    if (g.segment(s).cls == roadnet::RoadClass::kArterial) {
      arterial_fixes += per_segment[s];
      arterial_count += 1.0;
    } else if (g.segment(s).cls == roadnet::RoadClass::kLocal) {
      local_fixes += per_segment[s];
      local_count += 1.0;
    }
  }
  ASSERT_GT(arterial_count, 0.0);
  ASSERT_GT(local_count, 0.0);
  // Arterials should see clearly more traffic per segment on average.
  EXPECT_GT(arterial_fixes / arterial_count, local_fixes / local_count);
}

/// FNV-1a over the bit patterns of every field of every fix, in stream order.
std::uint64_t fix_stream_hash(const RoadGraph& g, const TraceParams& params) {
  using core::testing::fnv1a_word;
  std::uint64_t h = core::testing::kFnv1aBasis;
  TraceGenerator(g, params).generate([&h](const GpsFix& fix) {
    h = fnv1a_word(h, fix.vehicle);
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(fix.time_s));
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(fix.pos.x));
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(fix.pos.y));
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(fix.speed_mps));
    h = fnv1a_word(h, fix.segment);
  });
  return h;
}

TEST(TraceGenerator, FixStreamBitsArePinnedAcrossCommits) {
  // The other generator tests compare a trace with itself or check its
  // shape, so none of them notices a change in routing or in the fix
  // arithmetic, which moves every downstream coefficient, gamma and
  // trajectory. Update these only with a deliberate change to the trace.
  roadnet::CityParams city;
  city.rows = 12;
  city.cols = 14;
  const RoadGraph g = roadnet::build_city(city);
  TraceParams params;
  params.num_vehicles = 60;
  params.duration_s = 3600.0;
  params.seed = 2023;
  EXPECT_EQ(fix_stream_hash(g, params), 0xf6ae64c2d69f9c9cULL)
      << "trace seed 2023";
  params.seed = 99;
  EXPECT_EQ(fix_stream_hash(g, params), 0x1e11821eab81ff03ULL)
      << "trace seed 99";
}

TEST(TrafficDensity, CountsDistinctPresencesPerWindow) {
  TrafficDensityAccumulator td(3, 100.0, 300.0);
  // Vehicle 1 reports twice in window 0 on segment 0: counted once.
  td.add(GpsFix{1, 10.0, {}, 0.0, 0});
  td.add(GpsFix{1, 20.0, {}, 0.0, 0});
  // Vehicle 1 moves to segment 1 within window 0: new presence.
  td.add(GpsFix{1, 30.0, {}, 0.0, 1});
  // Vehicle 2 in window 0 segment 0.
  td.add(GpsFix{2, 50.0, {}, 0.0, 0});
  // Vehicle 1 in window 1 segment 0: new window, counted again.
  td.add(GpsFix{1, 150.0, {}, 0.0, 0});

  EXPECT_EQ(td.count(0, 0), 2u);
  EXPECT_EQ(td.count(0, 1), 1u);
  EXPECT_EQ(td.count(1, 0), 1u);
  EXPECT_EQ(td.count(2, 0), 0u);
}

TEST(TrafficDensity, DensityDividesByWindow) {
  TrafficDensityAccumulator td(1, 600.0, 600.0);
  td.add(GpsFix{1, 0.0, {}, 0.0, 0});
  td.add(GpsFix{2, 1.0, {}, 0.0, 0});
  td.add(GpsFix{3, 2.0, {}, 0.0, 0});
  EXPECT_DOUBLE_EQ(td.density(0, 0), 3.0 / 600.0);
}

TEST(TrafficDensity, AverageDensityOverWindows) {
  TrafficDensityAccumulator td(2, 100.0, 200.0);
  td.add(GpsFix{1, 10.0, {}, 0.0, 0});
  td.add(GpsFix{2, 110.0, {}, 0.0, 0});
  td.add(GpsFix{3, 120.0, {}, 0.0, 0});
  const auto avg = td.average_density();
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0], 3.0 / 200.0);
  EXPECT_DOUBLE_EQ(avg[1], 0.0);
}

TEST(TrafficDensity, IgnoresFixesBeyondDuration) {
  TrafficDensityAccumulator td(1, 100.0, 100.0);
  td.add(GpsFix{1, 250.0, {}, 0.0, 0});
  EXPECT_EQ(td.count(0, 0), 0u);
}

TEST(TrafficDensity, RejectsNegativeOrNanTimesAndSkipsTimesPastTheSpan) {
  TrafficDensityAccumulator td(1, 100.0, 200.0);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double t : {-5.0, -25.0, kNan}) {
    EXPECT_THROW(td.add(GpsFix{1, t, {}, 0.0, 0}), ContractViolation)
        << "time " << t;
  }
  VehicleId vehicle = 1;
  for (const double t : {1e300, std::numeric_limits<double>::infinity(),
                         200.0}) {
    td.add(GpsFix{vehicle++, t, {}, 0.0, 0});
  }
  EXPECT_EQ(td.total_counts()[0], 0u);
}

TEST(TrafficDensity, RejectsInvalidSegment) {
  TrafficDensityAccumulator td(2, 100.0, 100.0);
  EXPECT_THROW(td.add(GpsFix{1, 0.0, {}, 0.0, 5}), ContractViolation);
}

TEST(TrafficDensity, TotalCountsSumWindows) {
  TrafficDensityAccumulator td(1, 100.0, 300.0);
  td.add(GpsFix{1, 50.0, {}, 0.0, 0});
  td.add(GpsFix{1, 150.0, {}, 0.0, 0});
  td.add(GpsFix{1, 250.0, {}, 0.0, 0});
  EXPECT_EQ(td.total_counts()[0], 3u);
}

TEST(TraceIo, RoundTripsThroughCsv) {
  const RoadGraph g = roadnet::make_grid(3, 3, 200.0);
  TraceParams params = small_params();
  params.num_vehicles = 5;
  params.duration_s = 600.0;
  const TraceGenerator gen(g, params);
  const auto fixes = gen.generate_all();
  ASSERT_FALSE(fixes.empty());

  std::ostringstream out;
  write_trace_csv(out, fixes);
  std::istringstream in(out.str());
  const auto loaded = read_trace_csv(in);

  ASSERT_EQ(loaded.size(), fixes.size());
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    EXPECT_EQ(loaded[i].vehicle, fixes[i].vehicle);
    EXPECT_NEAR(loaded[i].time_s, fixes[i].time_s, 1e-4);
    EXPECT_NEAR(loaded[i].pos.x, fixes[i].pos.x, 1e-4);
    EXPECT_NEAR(loaded[i].pos.y, fixes[i].pos.y, 1e-4);
    EXPECT_EQ(loaded[i].segment, fixes[i].segment);
  }
}

TEST(TraceIo, MalformedRowsRejected) {
  // Wrong column count.
  {
    std::istringstream in("vehicle,time_s,x_m,y_m,speed_mps,segment\n1,2,3\n");
    EXPECT_THROW(read_trace_csv(in), ContractViolation);
  }
  // Non-numeric field.
  {
    std::istringstream in(
        "vehicle,time_s,x_m,y_m,speed_mps,segment\n1,abc,0,0,0,0\n");
    EXPECT_THROW(read_trace_csv(in), ContractViolation);
  }
}

TEST(TraceIo, EmptyTraceHasHeaderOnly) {
  std::ostringstream out;
  write_trace_csv(out, {});
  std::istringstream in(out.str());
  EXPECT_TRUE(read_trace_csv(in).empty());
}

}  // namespace
}  // namespace avcp::trace
