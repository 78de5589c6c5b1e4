// Fault-injection layer: schedule determinism, degraded data path, and the
// zero-fault bit-identity contract of the plant and agent simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "faults/degraded_controller.h"
#include "faults/fault_model.h"
#include "perception/data_plane.h"
#include "perception/scheduler.h"
#include "sim/agent_sim.h"
#include "sim/metrics.h"
#include "system/system.h"
#include "test_support.h"

namespace avcp {
namespace {

using core::testing::make_chain_game;

// ---------------------------------------------------------------------------
// FaultModel schedule determinism
// ---------------------------------------------------------------------------

faults::FaultParams lossy_params(std::uint64_t seed) {
  faults::FaultParams fp;
  fp.upload_loss_rate = 0.3;
  fp.delivery_loss_rate = 0.25;
  fp.report_loss_rate = 0.2;
  fp.outage_rate = 0.1;
  fp.defector_fraction = 0.15;
  fp.seed = seed;
  return fp;
}

TEST(FaultModelTest, SameSeedSameSchedule) {
  const faults::FaultModel a(lossy_params(42));
  const faults::FaultModel b(lossy_params(42));
  for (std::size_t round = 0; round < 20; ++round) {
    for (core::RegionId i = 0; i < 3; ++i) {
      EXPECT_EQ(a.region_down(round, i), b.region_down(round, i));
      EXPECT_EQ(a.report_lost(round, i), b.report_lost(round, i));
      for (std::size_t v = 0; v < 10; ++v) {
        EXPECT_EQ(a.upload_lost(round, i, 0, v), b.upload_lost(round, i, 0, v));
        EXPECT_EQ(a.delivery_lost(round, i, 0, v, (v + 1) % 10),
                  b.delivery_lost(round, i, 0, v, (v + 1) % 10));
      }
    }
  }
  for (core::RegionId i = 0; i < 3; ++i) {
    for (std::size_t v = 0; v < 50; ++v) {
      EXPECT_EQ(a.vehicle_defects(i, v), b.vehicle_defects(i, v));
    }
  }
}

TEST(FaultModelTest, QueryOrderIrrelevant) {
  // Predicates are pure hashes: asking in reverse, twice, or interleaved
  // yields the same schedule as a single forward sweep.
  const faults::FaultModel model(lossy_params(7));
  std::vector<bool> forward;
  for (std::size_t round = 0; round < 30; ++round) {
    forward.push_back(model.upload_lost(round, 1, 0, 4));
  }
  std::vector<bool> backward(30);
  for (std::size_t round = 30; round-- > 0;) {
    model.report_lost(round, 0);  // unrelated interleaved queries
    model.delivery_lost(round, 2, 1, 3, 5);
    backward[round] = model.upload_lost(round, 1, 0, 4);
  }
  for (std::size_t round = 0; round < 30; ++round) {
    EXPECT_EQ(forward[round], backward[round]) << "round " << round;
  }
}

TEST(FaultModelTest, DifferentSeedsDiverge) {
  const faults::FaultModel a(lossy_params(1));
  const faults::FaultModel b(lossy_params(2));
  std::size_t differences = 0;
  for (std::size_t round = 0; round < 200; ++round) {
    if (a.upload_lost(round, 0, 0, 0) != b.upload_lost(round, 0, 0, 0)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0u);
}

TEST(FaultModelTest, RateExtremes) {
  faults::FaultParams zero;
  zero.seed = 9;
  const faults::FaultModel none(zero);
  EXPECT_FALSE(none.active());

  faults::FaultParams all;
  all.upload_loss_rate = 1.0;
  all.delivery_loss_rate = 1.0;
  all.report_loss_rate = 1.0;
  all.outage_rate = 1.0;
  all.defector_fraction = 1.0;
  all.seed = 9;
  const faults::FaultModel every(all);
  EXPECT_TRUE(every.active());

  for (std::size_t round = 0; round < 25; ++round) {
    for (core::RegionId i = 0; i < 2; ++i) {
      EXPECT_FALSE(none.upload_lost(round, i, 0, round));
      EXPECT_FALSE(none.delivery_lost(round, i, 0, 1, 2));
      EXPECT_FALSE(none.report_lost(round, i));
      EXPECT_FALSE(none.region_down(round, i));
      EXPECT_TRUE(none.report_available(round, i));
      EXPECT_TRUE(every.upload_lost(round, i, 0, round));
      EXPECT_TRUE(every.delivery_lost(round, i, 0, 1, 2));
      EXPECT_TRUE(every.report_lost(round, i));
      EXPECT_TRUE(every.region_down(round, i));
      EXPECT_FALSE(every.report_available(round, i));
    }
  }
  EXPECT_FALSE(none.vehicle_defects(0, 3));
  EXPECT_TRUE(every.vehicle_defects(0, 3));
}

TEST(FaultModelTest, ScheduledWindowBoundaries) {
  faults::FaultParams fp;
  fp.seed = 5;
  fp.outages.push_back(faults::OutageWindow{/*region=*/1, /*first_round=*/10,
                                            /*duration=*/4});
  const faults::FaultModel model(fp);
  EXPECT_TRUE(model.active());
  EXPECT_FALSE(model.region_down(9, 1));
  EXPECT_TRUE(model.region_down(10, 1));
  EXPECT_TRUE(model.region_down(13, 1));
  EXPECT_FALSE(model.region_down(14, 1));
  // Other regions untouched.
  EXPECT_FALSE(model.region_down(11, 0));
  EXPECT_FALSE(model.region_down(11, 2));
  // A down region cannot report.
  EXPECT_FALSE(model.report_available(11, 1));
  EXPECT_TRUE(model.report_available(11, 0));
}

TEST(FaultModelTest, AllRegionsWindow) {
  faults::FaultParams fp;
  fp.outages.push_back(faults::OutageWindow{faults::OutageWindow::kAllRegions,
                                            /*first_round=*/3,
                                            /*duration=*/2});
  const faults::FaultModel model(fp);
  for (core::RegionId i = 0; i < 4; ++i) {
    EXPECT_FALSE(model.region_down(2, i));
    EXPECT_TRUE(model.region_down(3, i));
    EXPECT_TRUE(model.region_down(4, i));
    EXPECT_FALSE(model.region_down(5, i));
  }
}

TEST(FaultModelTest, OutageWindowCoversEdgeCases) {
  // Zero duration covers nothing, not even its own first_round.
  const faults::OutageWindow empty{/*region=*/0, /*first_round=*/5,
                                   /*duration=*/0};
  EXPECT_FALSE(empty.covers(4, 0));
  EXPECT_FALSE(empty.covers(5, 0));
  EXPECT_FALSE(empty.covers(6, 0));

  // Half-open boundaries: first_round in, first_round + duration out.
  const faults::OutageWindow window{/*region=*/2, /*first_round=*/7,
                                    /*duration=*/3};
  EXPECT_FALSE(window.covers(6, 2));
  EXPECT_TRUE(window.covers(7, 2));
  EXPECT_TRUE(window.covers(9, 2));
  EXPECT_FALSE(window.covers(10, 2));
  EXPECT_FALSE(window.covers(8, 1));  // wrong region

  // The all-regions sentinel hits every region id, including large ones.
  const faults::OutageWindow everywhere{faults::OutageWindow::kAllRegions,
                                        /*first_round=*/0, /*duration=*/1};
  EXPECT_TRUE(everywhere.covers(0, 0));
  EXPECT_TRUE(everywhere.covers(0, 999));
  EXPECT_FALSE(everywhere.covers(1, 0));

  // A window starting at the far end of the round space still has a
  // well-defined (empty beyond SIZE_MAX) coverage — covers() never wraps.
  const faults::OutageWindow tail{/*region=*/0,
                                  /*first_round=*/SIZE_MAX - 1,
                                  /*duration=*/1};
  EXPECT_TRUE(tail.covers(SIZE_MAX - 1, 0));
  EXPECT_FALSE(tail.covers(SIZE_MAX, 0));
}

TEST(FaultModelTest, InvalidParamsRejectedOnConstruction) {
  {
    faults::FaultParams fp;
    fp.upload_loss_rate = 1.5;
    EXPECT_THROW(faults::FaultModel{fp}, ContractViolation);
  }
  {
    faults::FaultParams fp;
    fp.delivery_loss_rate = -0.1;
    EXPECT_THROW(faults::FaultModel{fp}, ContractViolation);
  }
  {
    faults::FaultParams fp;
    fp.defector_fraction = std::nan("");
    EXPECT_THROW(faults::FaultModel{fp}, ContractViolation);
  }
  {
    // first_round + duration would overflow size_t: the window's end is
    // unrepresentable, so the model refuses it up front.
    faults::FaultParams fp;
    fp.outages.push_back(faults::OutageWindow{/*region=*/0,
                                              /*first_round=*/SIZE_MAX,
                                              /*duration=*/2});
    EXPECT_THROW(faults::FaultModel{fp}, ContractViolation);
  }
  // Boundary values are fine.
  faults::FaultParams ok;
  ok.upload_loss_rate = 1.0;
  ok.delivery_loss_rate = 0.0;
  ok.outages.push_back(faults::OutageWindow{/*region=*/0,
                                            /*first_round=*/SIZE_MAX - 2,
                                            /*duration=*/2});
  EXPECT_NO_THROW(faults::FaultModel{ok});
}

// ---------------------------------------------------------------------------
// Plant integration
// ---------------------------------------------------------------------------

bool reports_equal(const system::RoundReport& a, const system::RoundReport& b) {
  return a.x == b.x && a.mean_utility == b.mean_utility &&
         a.mean_privacy == b.mean_privacy &&
         a.exposed_privacy == b.exposed_privacy && a.state.p == b.state.p &&
         a.faults.uploads_lost == b.faults.uploads_lost &&
         a.faults.deliveries_lost == b.faults.deliveries_lost &&
         a.faults.region_down == b.faults.region_down &&
         a.faults.regions_down == b.faults.regions_down;
}

system::SystemParams small_plant_params() {
  system::SystemParams params;
  params.vehicles_per_region = 24;
  params.seed = 321;
  return params;
}

TEST(FaultPlantTest, ZeroFaultModelIsBitIdentical) {
  const auto game = make_chain_game(3);
  faults::FaultParams fp;  // all rates zero, no windows
  fp.seed = 777;           // seed alone must not activate anything
  const faults::FaultModel inert(fp);

  system::CooperativePerceptionSystem clean(game, small_plant_params());
  system::CooperativePerceptionSystem faulty(game, small_plant_params(),
                                             &inert);
  clean.init_from(game.uniform_state());
  faulty.init_from(game.uniform_state());

  core::FixedRatioController controller_a(0.6);
  core::FixedRatioController controller_b(0.6);
  for (std::size_t t = 0; t < 15; ++t) {
    const auto ra = clean.run_round(controller_a);
    const auto rb = faulty.run_round(controller_b);
    ASSERT_TRUE(reports_equal(ra, rb)) << "diverged at round " << t;
  }
  EXPECT_EQ(faulty.fault_counters().uploads_lost, 0u);
  EXPECT_EQ(faulty.fault_counters().deliveries_lost, 0u);
  EXPECT_EQ(faulty.fault_counters().region_outages, 0u);
}

TEST(FaultPlantTest, SameSeedFaultyRunReproduces) {
  const auto game = make_chain_game(2);
  faults::FaultParams fp;
  fp.upload_loss_rate = 0.3;
  fp.delivery_loss_rate = 0.3;
  fp.outage_rate = 0.1;
  fp.seed = 31;
  const faults::FaultModel model(fp);

  system::CooperativePerceptionSystem a(game, small_plant_params(), &model);
  system::CooperativePerceptionSystem b(game, small_plant_params(), &model);
  a.init_from(game.uniform_state());
  b.init_from(game.uniform_state());

  core::FixedRatioController ca(0.8);
  core::FixedRatioController cb(0.8);
  for (std::size_t t = 0; t < 12; ++t) {
    ASSERT_TRUE(reports_equal(a.run_round(ca), b.run_round(cb)))
        << "diverged at round " << t;
  }
  EXPECT_GT(a.fault_counters().uploads_lost +
                a.fault_counters().deliveries_lost +
                a.fault_counters().region_outages,
            0u);
}

TEST(FaultPlantTest, TotalUploadLossZeroesPrivacy) {
  const auto game = make_chain_game(2);
  faults::FaultParams fp;
  fp.upload_loss_rate = 1.0;
  fp.seed = 13;
  const faults::FaultModel model(fp);

  system::CooperativePerceptionSystem plant(game, small_plant_params(),
                                            &model);
  plant.init_from(game.uniform_state());
  core::FixedRatioController controller(1.0);
  for (std::size_t t = 0; t < 5; ++t) {
    const auto report = plant.run_round(controller);
    for (std::size_t i = 0; i < game.num_regions(); ++i) {
      // Nothing reaches any server: no privacy spent, nothing exposed.
      EXPECT_EQ(report.mean_privacy[i], 0.0);
      EXPECT_EQ(report.exposed_privacy[i], 0.0);
    }
    EXPECT_GT(report.faults.uploads_lost, 0u);
    EXPECT_EQ(report.faults.deliveries_lost, 0u);
  }
  EXPECT_GT(plant.fault_counters().uploads_lost, 0u);
}

TEST(FaultPlantTest, DeliveryLossSparesPrivacyCostsUtility) {
  // Delivery loss happens after the upload was accepted: the uploader's
  // privacy account is bitwise identical to the clean same-seed run, only
  // realized utility drops.
  const auto game = make_chain_game(2);
  system::SystemParams params = small_plant_params();
  params.inter_region_exchange = false;  // isolate the within-cell path

  faults::FaultParams fp;
  fp.delivery_loss_rate = 1.0;
  fp.seed = 17;
  const faults::FaultModel model(fp);

  system::CooperativePerceptionSystem clean(game, params);
  system::CooperativePerceptionSystem faulty(game, params, &model);
  clean.init_from(game.uniform_state());
  faulty.init_from(game.uniform_state());

  core::FixedRatioController ca(1.0);
  core::FixedRatioController cb(1.0);
  const auto rc = clean.run_round(ca);
  const auto rf = faulty.run_round(cb);
  EXPECT_EQ(rc.mean_privacy, rf.mean_privacy);
  EXPECT_EQ(rc.exposed_privacy, rf.exposed_privacy);
  EXPECT_GT(rf.faults.deliveries_lost, 0u);
  double clean_utility = 0.0;
  double faulty_utility = 0.0;
  for (std::size_t i = 0; i < game.num_regions(); ++i) {
    clean_utility += rc.mean_utility[i];
    faulty_utility += rf.mean_utility[i];
  }
  EXPECT_LT(faulty_utility, clean_utility);
}

TEST(FaultPlantTest, OutageSkipsExchangeAndIsReported) {
  const auto game = make_chain_game(2);
  faults::FaultParams fp;
  fp.outages.push_back(
      faults::OutageWindow{/*region=*/0, /*first_round=*/0, /*duration=*/3});
  const faults::FaultModel model(fp);

  system::CooperativePerceptionSystem plant(game, small_plant_params(),
                                            &model);
  plant.init_from(game.uniform_state());
  core::FixedRatioController controller(1.0);
  for (std::size_t t = 0; t < 3; ++t) {
    const auto report = plant.run_round(controller);
    ASSERT_EQ(report.faults.region_down.size(), game.num_regions());
    EXPECT_NE(report.faults.region_down[0], 0);
    EXPECT_EQ(report.faults.region_down[1], 0);
    EXPECT_EQ(report.faults.regions_down, 1u);
    // No exchange in the down region: nothing exposed, no privacy spent.
    EXPECT_EQ(report.mean_privacy[0], 0.0);
    EXPECT_EQ(report.exposed_privacy[0], 0.0);
    EXPECT_GT(report.exposed_privacy[1], 0.0);
  }
  const auto after = plant.run_round(controller);
  EXPECT_EQ(after.faults.regions_down, 0u);
  EXPECT_GT(after.exposed_privacy[0], 0.0);
  EXPECT_EQ(plant.fault_counters().region_outages, 3u);
}

// ---------------------------------------------------------------------------
// Degraded data plane and scheduler
// ---------------------------------------------------------------------------

/// Universe with 2 items per sensor: camera {0,1}, lidar {2,3}, radar {4,5}.
perception::DataUniverse small_universe() {
  perception::DataUniverse universe(3);
  for (std::size_t s = 0; s < 3; ++s) {
    const double privacy = s == 0 ? 1.0 : (s == 1 ? 0.5 : 0.1);
    universe.add_item(s, 1.0, privacy);
    universe.add_item(s, 1.0, privacy);
  }
  return universe;
}

perception::FleetSoA make_vehicles(const core::DecisionLattice& lattice,
                                   const perception::DataUniverse& universe,
                                   std::size_t n) {
  Rng rng(5);
  perception::FleetSoA vehicles;
  for (std::size_t v = 0; v < n; ++v) {
    const auto decision = static_cast<core::DecisionId>(rng.uniform_int(
        0, static_cast<std::int64_t>(lattice.num_decisions()) - 1));
    perception::ItemSet collected;
    perception::ItemSet desired;
    for (perception::ItemId item = 0; item < universe.size(); ++item) {
      if (rng.bernoulli(0.5)) collected.push_back(item);
      if (rng.bernoulli(0.4)) desired.push_back(item);
    }
    vehicles.add(decision, perception::kClaimFollowsDecision, false, collected,
                 desired);
  }
  return vehicles;
}

/// One exact-kernel round under `mask`.
perception::RoundOutcome exact_round(perception::EdgeServerDataPlane& plane,
                                     const perception::FleetSoA& vehicles,
                                     double x,
                                     const perception::CellFaultMask& mask) {
  perception::RoundOutcome out;
  plane.run_round_into(vehicles.view(), x, mask, {},
                       perception::DataPlaneMode::kPairwiseExact, out);
  return out;
}

TEST(DegradedDataPlaneTest, UploadMaskRemovesPrivacyAndPool) {
  const core::DecisionLattice lattice(3);
  const auto universe = small_universe();
  const auto vehicles = make_vehicles(lattice, universe, 10);

  perception::CellFaultMask mask;
  mask.upload_lost.assign(vehicles.size(), 1);  // every upload lost
  perception::EdgeServerDataPlane plane(lattice, universe,
                                        core::AccessRule::kSubsetOrEqual, 3);
  const auto outcome = exact_round(plane, vehicles, 1.0, mask);
  EXPECT_EQ(outcome.exposed_items, 0u);
  EXPECT_EQ(outcome.exposed_privacy, 0.0);
  EXPECT_EQ(outcome.deliveries, 0u);
  for (const double c : outcome.privacy) EXPECT_EQ(c, 0.0);
  EXPECT_GT(outcome.uploads_lost, 0u);
}

TEST(DegradedDataPlaneTest, DeliveryMaskPreservesPrivacyStream) {
  const core::DecisionLattice lattice(3);
  const auto universe = small_universe();
  const auto vehicles = make_vehicles(lattice, universe, 10);
  const std::size_t n = vehicles.size();

  perception::CellFaultMask mask;
  mask.delivery_lost.assign(n * n, 1);  // every accepted delivery lost
  perception::EdgeServerDataPlane clean(lattice, universe,
                                        core::AccessRule::kSubsetOrEqual, 9);
  perception::EdgeServerDataPlane lossy(lattice, universe,
                                        core::AccessRule::kSubsetOrEqual, 9);
  const auto a = exact_round(clean, vehicles, 0.8, {});
  const auto b = exact_round(lossy, vehicles, 0.8, mask);
  // The uplink phase is untouched: privacy and exposure are bitwise equal.
  EXPECT_EQ(a.privacy, b.privacy);
  EXPECT_EQ(a.exposed_items, b.exposed_items);
  EXPECT_EQ(a.exposed_privacy, b.exposed_privacy);
  // Everything accepted downstream was dropped.
  EXPECT_EQ(b.deliveries, 0u);
  EXPECT_EQ(b.deliveries_lost, a.deliveries);
}

TEST(SchedulerFaultTest, LostUploadsShrinkPool) {
  const core::DecisionLattice lattice(3);
  const auto universe = small_universe();
  perception::DistributionScheduler scheduler(lattice, universe);

  std::vector<perception::SenderUpload> uploads(2);
  uploads[0].decision = 0  /* P1: share all */;
  uploads[0].items = {0, 1, 2};
  uploads[1].decision = 0  /* P1: share all */;
  uploads[1].items = {3, 4};

  perception::DistributionRequest receiver;
  receiver.decision = 0  /* P1: share all */;
  receiver.desired = {0, 1, 2, 3, 4};

  const std::vector<std::uint8_t> lost = {0, 1};  // second upload lost
  const auto full = scheduler.admissible_pool(uploads, receiver);
  const auto degraded = scheduler.admissible_pool(uploads, receiver, lost);
  EXPECT_EQ(full.size(), 5u);
  EXPECT_EQ(degraded, (perception::ItemSet{0, 1, 2}));

  const auto plan =
      scheduler.plan(uploads, std::vector<perception::DistributionRequest>{
                                  receiver},
                     std::nullopt, lost);
  EXPECT_EQ(plan.lost_uploads, 1u);
  EXPECT_EQ(plan.deliveries[0], (perception::ItemSet{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Agent-based simulator
// ---------------------------------------------------------------------------

TEST(AgentSimFaultTest, InactiveModelIsBitIdentical) {
  const auto game = make_chain_game(2);
  sim::AgentSimParams params;
  params.vehicles_per_region = 100;
  params.seed = 55;

  faults::FaultParams fp;  // inert
  const faults::FaultModel inert(fp);

  sim::AgentBasedSim plain(game, params);
  sim::AgentBasedSim with_model(game, params, &inert);
  plain.init_from(game.uniform_state());
  with_model.init_from(game.uniform_state());
  const std::vector<double> x(game.num_regions(), 0.9);
  for (std::size_t t = 0; t < 10; ++t) {
    plain.step(x);
    with_model.step(x);
    ASSERT_EQ(plain.empirical_state().p, with_model.empirical_state().p)
        << "diverged at round " << t;
  }
}

TEST(AgentSimFaultTest, AllDefectorsFreezeTheState) {
  const auto game = make_chain_game(2);
  sim::AgentSimParams params;
  params.vehicles_per_region = 100;
  params.seed = 12;

  faults::FaultParams fp;
  fp.defector_fraction = 1.0;
  fp.seed = 3;
  const faults::FaultModel model(fp);

  sim::AgentBasedSim simulator(game, params, &model);
  simulator.init_from(game.uniform_state());
  const auto before = simulator.empirical_state();
  const std::vector<double> x(game.num_regions(), 1.0);
  for (std::size_t t = 0; t < 5; ++t) simulator.step(x);
  EXPECT_EQ(before.p, simulator.empirical_state().p);
}

TEST(AgentSimFaultTest, RegionOutageHoldsThatRegionOnly) {
  const auto game = make_chain_game(2, /*beta_lo=*/2.0, /*beta_hi=*/2.0);
  sim::AgentSimParams params;
  params.vehicles_per_region = 200;
  params.seed = 8;

  faults::FaultParams fp;
  fp.outages.push_back(
      faults::OutageWindow{/*region=*/0, /*first_round=*/0, /*duration=*/4});
  const faults::FaultModel model(fp);

  sim::AgentBasedSim simulator(game, params, &model);
  simulator.init_from(game.uniform_state());
  const auto before = simulator.empirical_state();
  const std::vector<double> x(game.num_regions(), 1.0);
  for (std::size_t t = 0; t < 4; ++t) simulator.step(x);
  const auto after = simulator.empirical_state();
  EXPECT_EQ(before.p[0], after.p[0]);  // down region held its decisions
  EXPECT_NE(before.p[1], after.p[1]);  // live region kept revising
}

// ---------------------------------------------------------------------------
// Robustness metrics
// ---------------------------------------------------------------------------

TEST(RobustnessMetricsTest, RoundsToReconverge) {
  const auto game = make_chain_game(1);
  core::DesiredFields fields(1, game.num_decisions());
  fields.set_target(0, 0, Interval{0.9, 1.0});

  auto state_with_p0 = [&](double p0) {
    auto state = game.uniform_state();
    const std::size_t k = game.num_decisions();
    state.p[0].assign(k, (1.0 - p0) / static_cast<double>(k - 1));
    state.p[0][0] = p0;
    return state;
  };
  std::vector<core::GameState> trajectory = {
      state_with_p0(0.2), state_with_p0(0.5), state_with_p0(0.95),
      state_with_p0(0.3), state_with_p0(0.4), state_with_p0(0.92)};
  EXPECT_EQ(sim::rounds_to_reconverge(trajectory, fields, 0), 2u);
  EXPECT_EQ(sim::rounds_to_reconverge(trajectory, fields, 2), 0u);
  EXPECT_EQ(sim::rounds_to_reconverge(trajectory, fields, 3), 2u);
  trajectory.resize(5);  // drop the recovery
  EXPECT_EQ(sim::rounds_to_reconverge(trajectory, fields, 3),
            sim::kNoReconvergence);
}

TEST(RobustnessMetricsTest, DegradationSummary) {
  const std::vector<double> clean = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> faulty = {0.8, 0.7, 0.9, 0.6};
  const auto summary = sim::degradation(clean, faulty);
  EXPECT_DOUBLE_EQ(summary.mean_clean, 1.0);
  EXPECT_DOUBLE_EQ(summary.mean_faulty, 0.75);
  EXPECT_DOUBLE_EQ(summary.absolute_drop, 0.25);
  EXPECT_DOUBLE_EQ(summary.relative_drop, 0.25);
}

// ---------------------------------------------------------------------------
// Acceptance: FDS survives a 10-round total edge-server outage
// ---------------------------------------------------------------------------

TEST(FaultAcceptanceTest, FdsReconvergesAfterTotalOutage) {
  const auto game = make_chain_game(3, /*beta_lo=*/4.0, /*beta_hi=*/4.0);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.7, 1.0});
  }

  constexpr std::size_t kOutageStart = 4;
  constexpr std::size_t kOutageDuration = 10;
  faults::FaultParams fp;
  fp.outages.push_back(faults::OutageWindow{
      faults::OutageWindow::kAllRegions, kOutageStart, kOutageDuration});
  const faults::FaultModel model(fp);

  system::SystemParams params;
  params.vehicles_per_region = 60;
  params.seed = 11;
  system::CooperativePerceptionSystem plant(game, params, &model);
  plant.init_from(game.uniform_state());

  core::FdsOptions fds_options;
  fds_options.max_step = 0.15;
  core::FdsController fds(game, fields, fds_options);
  faults::DegradedOptions degraded_options;
  degraded_options.max_step = fds_options.max_step;
  degraded_options.staleness_budget = 2;
  faults::DegradedController controller(fds, model, degraded_options);

  std::vector<core::GameState> trajectory;
  bool blind_during_outage = false;
  for (std::size_t t = 0; t < 60; ++t) {
    trajectory.push_back(plant.run_round(controller).state);
    if (t >= kOutageStart + degraded_options.staleness_budget &&
        t < kOutageStart + kOutageDuration) {
      blind_during_outage = blind_during_outage || controller.degraded(0);
    }
  }
  EXPECT_TRUE(blind_during_outage);
  // The outage interrupted shaping...
  EXPECT_FALSE(fields.satisfied(trajectory[kOutageStart - 1], 1e-9));
  // ...and the wrapped controller recovered once reports resumed.
  const std::size_t rounds = sim::rounds_to_reconverge(
      trajectory, fields, kOutageStart + kOutageDuration, 1e-9);
  ASSERT_NE(rounds, sim::kNoReconvergence);
  EXPECT_GT(rounds, 0u);
  EXPECT_TRUE(fields.satisfied(trajectory.back(), 1e-9));
  EXPECT_EQ(plant.fault_counters().region_outages,
            kOutageDuration * game.num_regions());
}

}  // namespace
}  // namespace avcp
