#include "sim/trace_replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/fds.h"
#include "core/imitation.h"
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

TEST(TraceReplay, InitDrawsFromTheFirstPresentRegionsRow) {
  // Vehicles 0..4 drive region 0 in both rounds, 5..8 region 1 in round 0
  // only, and vehicle 9 shows up in region 1 in round 1 only. Region 0's
  // row is all P1 and region 1's all P8, so each region's mix shows which
  // row its vehicles drew from (and, being pure, revision cannot move it).
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  std::vector<trace::GpsFix> fixes;
  for (trace::VehicleId v = 0; v < 5; ++v) {
    fixes.push_back({v, 1.0, {}, 0.0, 0});
    fixes.push_back({v, 101.0, {}, 0.0, 0});
  }
  for (trace::VehicleId v = 5; v < 9; ++v) {
    fixes.push_back({v, 1.0, {}, 0.0, 1});
  }
  fixes.push_back({9, 101.0, {}, 0.0, 1});
  TraceDrivenSim sim(game, fixes, region_of, 10, 200.0, tiny_params());
  core::GameState rows = game.uniform_state();
  rows.p[0].assign(8, 0.0);
  rows.p[0][0] = 1.0;  // P1: share everything
  rows.p[1].assign(8, 0.0);
  rows.p[1][7] = 1.0;  // P8: share nothing
  sim.init_from(rows);
  EXPECT_DOUBLE_EQ(sim.empirical_state().p[0][0], 1.0);
  EXPECT_DOUBLE_EQ(sim.empirical_state().p[1][7], 1.0);
  const std::vector<double> x = {0.5, 0.5};
  sim.step(x);  // round 0
  sim.step(x);  // round 1: region 1 holds vehicle 9 alone
  EXPECT_DOUBLE_EQ(sim.empirical_state().p[1][7], 1.0);
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

TEST(TraceReplay, InitRejectsRowsWiderThanTheLattice) {
  // A ninth entry would let weighted_index draw decision 8 on an 8-decision
  // lattice, which the empirical state then uses as an index.
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  TraceDrivenSim sim(game, tiny_trace(), region_of, 3, 200.0, tiny_params());
  core::GameState rows = game.uniform_state();
  rows.p[0].assign(9, 0.0);
  rows.p[0][8] = 1.0;
  EXPECT_THROW(sim.init_from(rows), ContractViolation);
}

TEST(TraceReplay, RevisionFollowsTheImitateDrawContract) {
  // One round of 40 vehicles, repeated: even ids drive region 0 and odd
  // ids region 1, so id order interleaves the regions. The replay must
  // revise by core::imitate over each region's roster (regions in index
  // order, rosters in id order, fitness from the start-of-round state),
  // all from the one stream that init_from drew from.
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 1};
  constexpr std::size_t kVehicles = 40;
  std::vector<trace::GpsFix> fixes;
  for (trace::VehicleId v = 0; v < kVehicles; ++v) {
    fixes.push_back({v, 1.0, {}, 0.0, v % 2});
  }
  TraceReplayParams params = tiny_params();
  params.imitation_scale = 8.0;
  params.seed = 77;
  TraceDrivenSim sim(game, fixes, region_of, kVehicles, 100.0, params);
  const core::GameState initial = game.uniform_state();
  sim.init_from(initial);

  Rng rng(77);
  std::vector<core::DecisionId> decisions(kVehicles);
  for (std::size_t v = 0; v < kVehicles; ++v) {
    decisions[v] =
        static_cast<core::DecisionId>(rng.weighted_index(initial.p[v % 2]));
  }
  std::vector<std::vector<trace::VehicleId>> rosters(2);
  for (trace::VehicleId v = 0; v < kVehicles; ++v) rosters[v % 2].push_back(v);
  const auto empirical = [&] {
    core::GameState state = game.uniform_state();
    for (std::size_t i = 0; i < 2; ++i) {
      std::fill(state.p[i].begin(), state.p[i].end(), 0.0);
      for (const trace::VehicleId v : rosters[i]) {
        state.p[i][decisions[v]] += 1.0;
      }
      for (double& share : state.p[i]) {
        share /= static_cast<double>(rosters[i].size());
      }
    }
    return state;
  };

  const std::vector<double> x = {0.7, 0.3};
  for (int round = 0; round < 6; ++round) {
    const core::GameState start = empirical();
    for (core::RegionId i = 0; i < 2; ++i) {
      const std::vector<trace::VehicleId>& roster = rosters[i];
      const std::vector<double> q = game.region_fitness(start, x, i);
      std::vector<core::DecisionId> before;
      for (const trace::VehicleId v : roster) before.push_back(decisions[v]);
      core::imitate(
          before, before, params.revision_rate, params.imitation_scale, rng,
          [](std::size_t) { return false; },
          [&](std::size_t j) { return q[before[j]]; },
          [&](std::size_t j, core::DecisionId d) { decisions[roster[j]] = d; });
    }
    sim.step(x);
    EXPECT_EQ(sim.empirical_state().p, empirical().p) << "round " << round;
  }
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
