#include "sim/trace_replay.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/contracts.h"
#include "core/fds.h"
#include "test_support.h"

namespace avcp::sim {
namespace {

using core::testing::make_chain_game;

/// A hand-built trace over 2 segments (segment s -> region s) and 2 rounds
/// of 100 s each.
std::vector<trace::GpsFix> tiny_trace() {
  std::vector<trace::GpsFix> fixes;
  // Round 0: vehicles 0, 1 mostly on segment 0; vehicle 2 on segment 1.
  fixes.push_back({0, 10.0, {}, 0.0, 0});
  fixes.push_back({0, 20.0, {}, 0.0, 0});
  fixes.push_back({1, 15.0, {}, 0.0, 0});
  fixes.push_back({2, 30.0, {}, 0.0, 1});
  // Vehicle 0 dips into segment 1 but stays modal on segment 0.
  fixes.push_back({0, 40.0, {}, 0.0, 1});
  fixes.push_back({0, 50.0, {}, 0.0, 0});
  // Round 1: vehicle 0 migrates to region 1; vehicle 1 goes dormant.
  fixes.push_back({0, 110.0, {}, 0.0, 1});
  fixes.push_back({2, 120.0, {}, 0.0, 1});
  return fixes;
}

TraceReplayParams tiny_params() {
  TraceReplayParams params;
  params.round_s = 100.0;
  params.seed = 5;
  return params;
}

TEST(TraceReplay, CountsRoundsAndPresence) {
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  const TraceDrivenSim sim(game, tiny_trace(), region_of, 3, 200.0,
                           tiny_params());
  EXPECT_EQ(sim.num_rounds(), 2u);
  EXPECT_EQ(sim.present_vehicles(0), 3u);
  EXPECT_EQ(sim.present_vehicles(1), 2u);
}

TEST(TraceReplay, EmpiricalStateReflectsPresentVehicles) {
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  TraceDrivenSim sim(game, tiny_trace(), region_of, 3, 200.0, tiny_params());

  // All vehicles start at decision drawn from a pure-P1 distribution.
  std::vector<double> all_p1(8, 0.0);
  all_p1[0] = 1.0;
  sim.init_from(game.broadcast_state(all_p1));
  const auto& state = sim.empirical_state();
  // Round 0: region 0 has vehicles {0, 1}, region 1 has {2}; all P1.
  EXPECT_DOUBLE_EQ(state.p[0][0], 1.0);
  EXPECT_DOUBLE_EQ(state.p[1][0], 1.0);
}

TEST(TraceReplay, RowsStayOnSimplexAcrossRounds) {
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  TraceDrivenSim sim(game, tiny_trace(), region_of, 3, 200.0, tiny_params());
  sim.init_from(game.uniform_state());
  const std::vector<double> x = {0.5, 0.5};
  for (int t = 0; t < 5; ++t) {
    sim.step(x);
    for (const auto& row : sim.empirical_state().p) {
      core::check_distribution(row);
    }
  }
  EXPECT_EQ(sim.current_round(), 5u);
}

TEST(TraceReplay, RejectsBadInputs) {
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  // Vehicle id out of range.
  std::vector<trace::GpsFix> bad = {{9, 0.0, {}, 0.0, 0}};
  EXPECT_THROW(
      TraceDrivenSim(game, bad, region_of, 3, 200.0, tiny_params()),
      ContractViolation);
  // Segment id out of range.
  bad = {{0, 0.0, {}, 0.0, 7}};
  EXPECT_THROW(
      TraceDrivenSim(game, bad, region_of, 3, 200.0, tiny_params()),
      ContractViolation);
}

TEST(TraceReplay, BuilderRejectsNegativeOrNanTimesAndSkipsTimesPastTheSpan) {
  const std::vector<cluster::RegionId> region_of = {0, 1};
  TracePresenceBuilder builder(region_of, 3, 2, 100.0, 200.0);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double t : {-5.0, -25.0, kNan}) {
    EXPECT_THROW(builder.add({0, t, {}, 0.0, 0}), ContractViolation)
        << "time " << t;
  }
  trace::VehicleId vehicle = 0;
  for (const double t : {1e300, std::numeric_limits<double>::infinity(),
                         200.0}) {
    builder.add({vehicle++, t, {}, 0.0, 1});
  }
  const auto presence = std::move(builder).build();
  ASSERT_EQ(presence.size(), 2u);
  EXPECT_TRUE(presence[0].empty());
  EXPECT_TRUE(presence[1].empty());
}

TEST(TraceReplay, StreamingBuilderMatchesSpanConstructor) {
  // Feeding fixes one at a time through TracePresenceBuilder must produce
  // the exact trajectory of the materialized-span constructor.
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  const auto fixes = tiny_trace();
  TraceDrivenSim batch(game, fixes, region_of, 3, 200.0, tiny_params());

  TracePresenceBuilder builder(region_of, 3, game.num_regions(),
                               tiny_params().round_s, 200.0);
  for (const trace::GpsFix& fix : fixes) builder.add(fix);
  EXPECT_EQ(builder.num_rounds(), 2u);
  TraceDrivenSim streamed(game, std::move(builder), tiny_params());

  EXPECT_EQ(streamed.num_rounds(), batch.num_rounds());
  EXPECT_EQ(streamed.present_vehicles(0), batch.present_vehicles(0));
  batch.init_from(game.uniform_state());
  streamed.init_from(game.uniform_state());
  const std::vector<double> x = {0.5, 0.5};
  for (int t = 0; t < 5; ++t) {
    batch.step(x);
    streamed.step(x);
    EXPECT_EQ(streamed.empirical_state().p, batch.empirical_state().p);
  }
}

TEST(TraceReplay, ConvergesToNoSharingAtZeroRatio) {
  // A dense synthetic presence pattern: everyone in one region all rounds.
  const auto game = make_chain_game(1, /*beta_lo=*/1.5);
  const std::vector<cluster::RegionId> region_of = {0};
  std::vector<trace::GpsFix> fixes;
  const std::size_t vehicles = 400;
  const std::size_t rounds = 120;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < vehicles; ++v) {
      fixes.push_back({static_cast<trace::VehicleId>(v),
                       static_cast<double>(r) * 100.0 + 1.0, {}, 0.0, 0});
    }
  }
  TraceDrivenSim sim(game, fixes, region_of, vehicles,
                     static_cast<double>(rounds) * 100.0, tiny_params());
  sim.init_from(game.uniform_state());
  const std::vector<double> x = {0.0};
  for (std::size_t t = 0; t < rounds; ++t) sim.step(x);
  EXPECT_GT(sim.empirical_state().p[0][7], 0.85);
}

TEST(TraceReplay, MigrationCarriesDecisionsBetweenRegions) {
  // Region 1 never hosts revision pressure of its own (one resident), but a
  // migrating majority from region 0 physically carries its decision over.
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  std::vector<trace::GpsFix> fixes;
  const std::size_t rounds = 4;
  for (std::size_t r = 0; r < rounds; ++r) {
    // Vehicles 0..19 live in region 0 in even rounds, region 1 in odd.
    const roadnet::SegmentId seg = (r % 2 == 0) ? 0 : 1;
    for (trace::VehicleId v = 0; v < 20; ++v) {
      fixes.push_back({v, static_cast<double>(r) * 100.0 + 1.0, {}, 0.0, seg});
    }
  }
  TraceDrivenSim sim(game, fixes, region_of, 20, 400.0, tiny_params());
  std::vector<double> all_p7(8, 0.0);
  all_p7[6] = 1.0;  // everyone shares radar only
  sim.init_from(game.broadcast_state(all_p7));
  const std::vector<double> x = {0.5, 0.5};
  sim.step(x);  // round 0: everyone in region 0
  sim.step(x);  // round 1: everyone moved to region 1
  // Region 1's empirical distribution is now the migrated population.
  EXPECT_DOUBLE_EQ(sim.empirical_state().p[1][6], 1.0);
}

TEST(TraceReplay, MeasuredFitnessModeIsDeterministicAndOptIn) {
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  const std::vector<double> x = {0.6, 0.4};
  auto run = [&](bool measured) {
    auto params = tiny_params();
    params.measure_data_plane = measured;
    params.exchange.mode = perception::DataPlaneMode::kClassAggregated;
    TraceDrivenSim sim(game, tiny_trace(), region_of, 3, 200.0, params);
    sim.init_from(game.uniform_state());
    for (int t = 0; t < 4; ++t) sim.step(x);
    return sim.empirical_state();
  };
  // Same seed, measured mode on: identical trajectories.
  const auto a = run(true);
  const auto b = run(true);
  EXPECT_EQ(a.p, b.p);
  for (const auto& row : a.p) core::check_distribution(row);
  // The flag is opt-in: the default analytic path still runs fine and its
  // revision stream is untouched by the measured machinery.
  const auto analytic = run(false);
  for (const auto& row : analytic.p) core::check_distribution(row);
}

TEST(TraceReplay, FdsShapesTraceDrivenPopulation) {
  // End-to-end: the FDS controller reads the trace-driven empirical state
  // and shapes it, tolerating migration and dormancy.
  const auto game = make_chain_game(1, /*beta_lo=*/4.0);
  const std::vector<cluster::RegionId> region_of = {0};
  std::vector<trace::GpsFix> fixes;
  const std::size_t vehicles = 600;
  const std::size_t rounds = 150;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < vehicles; ++v) {
      fixes.push_back({static_cast<trace::VehicleId>(v),
                       static_cast<double>(r) * 100.0 + 1.0, {}, 0.0, 0});
    }
  }
  TraceDrivenSim sim(game, fixes, region_of, vehicles,
                     static_cast<double>(rounds) * 100.0, tiny_params());
  sim.init_from(game.uniform_state());

  core::DesiredFields fields(1, 8);
  fields.set_target(0, 0, Interval{0.8, 1.0});
  core::FdsOptions options;
  options.max_step = 0.1;
  core::FdsController controller(game, fields, options);

  std::vector<double> x = {0.2};
  bool reached = false;
  for (std::size_t t = 0; t < rounds; ++t) {
    x = controller.next_x(sim.empirical_state(), x);
    sim.step(x);
    if (fields.satisfied(sim.empirical_state(), 1e-9)) {
      reached = true;
      break;
    }
  }
  EXPECT_TRUE(reached) << "final p(P1) = "
                       << sim.empirical_state().p[0][0];
}

}  // namespace
}  // namespace avcp::sim
