#include "sim/agent_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"
#include "core/imitation.h"
#include "faults/fault_model.h"
#include "test_support.h"

namespace avcp::sim {
namespace {

using core::testing::make_single_region_game;

TEST(AgentSim, EmpiricalStateIsValidDistribution) {
  const auto game = make_single_region_game();
  AgentSimParams params;
  params.vehicles_per_region = 200;
  AgentBasedSim sim(game, params);
  sim.init_from(game.uniform_state());
  const auto state = sim.empirical_state();
  ASSERT_EQ(state.p.size(), 1u);
  core::check_distribution(state.p[0]);
}

TEST(AgentSim, InitFromApproximatesTargetDistribution) {
  const auto game = make_single_region_game();
  AgentSimParams params;
  params.vehicles_per_region = 20000;
  params.seed = 3;
  AgentBasedSim sim(game, params);
  std::vector<double> p(8, 0.0);
  p[0] = 0.5;
  p[4] = 0.3;
  p[7] = 0.2;
  sim.init_from(game.broadcast_state(p));
  const auto state = sim.empirical_state();
  for (core::DecisionId k = 0; k < 8; ++k) {
    EXPECT_NEAR(state.p[0][k], p[k], 0.02) << "k=" << k;
  }
}

TEST(AgentSim, StepPreservesPopulationSize) {
  const auto game = make_single_region_game();
  AgentSimParams params;
  params.vehicles_per_region = 100;
  AgentBasedSim sim(game, params);
  sim.init_from(game.uniform_state());
  for (int t = 0; t < 5; ++t) {
    sim.step(std::vector<double>{0.5});
    core::check_distribution(sim.empirical_state().p[0]);
  }
}

TEST(AgentSim, ConvergesToNoSharingAtZeroRatio) {
  const auto game = make_single_region_game();
  AgentSimParams params;
  params.vehicles_per_region = 1000;
  params.seed = 11;
  AgentBasedSim sim(game, params);
  sim.init_from(game.uniform_state());
  const std::vector<double> x = {0.0};
  for (int t = 0; t < 300; ++t) sim.step(x);
  EXPECT_GT(sim.empirical_state().p[0][7], 0.9);
}

TEST(AgentSim, TracksMeanFieldTrajectory) {
  // Pairwise proportional imitation approximates the replicator flow; with
  // a large population the two trajectories stay close for a while. The
  // imitation-rate factor: a revising vehicle imitates a random peer with
  // probability proportional to the fitness gain, which reproduces the
  // replicator with an extra 1/2-ish slowdown factor; we compare loosely.
  const double beta = 3.0;
  const auto game = make_single_region_game(beta, /*eta=*/0.25);
  AgentSimParams params;
  params.vehicles_per_region = 30000;
  params.imitation_scale = 0.25;
  params.revision_rate = 1.0;
  params.seed = 5;
  AgentBasedSim sim(game, params);
  sim.init_from(game.uniform_state());

  core::GameState mean_field = game.uniform_state();
  const std::vector<double> x = {0.9};
  for (int t = 0; t < 120; ++t) {
    sim.step(x);
    game.replicator_step(mean_field, x);
  }
  // Both should have concentrated on the same dominant decision.
  const auto empirical = sim.empirical_state();
  core::DecisionId mf_best = 0;
  core::DecisionId ab_best = 0;
  for (core::DecisionId k = 1; k < 8; ++k) {
    if (mean_field.p[0][k] > mean_field.p[0][mf_best]) mf_best = k;
    if (empirical.p[0][k] > empirical.p[0][ab_best]) ab_best = k;
  }
  EXPECT_EQ(mf_best, ab_best);
  EXPECT_GT(empirical.p[0][ab_best], 0.5);
}

TEST(AgentSim, DefectorsNeverRevise) {
  const auto game = make_single_region_game();
  AgentSimParams params;
  params.vehicles_per_region = 2000;
  faults::FaultParams fp;
  fp.defector_fraction = 1.0;  // everyone frozen
  const faults::FaultModel faults(fp);
  AgentBasedSim sim(game, params, &faults);
  sim.init_from(game.uniform_state());
  const auto before = sim.empirical_state();
  for (int t = 0; t < 20; ++t) sim.step(std::vector<double>{0.5});
  const auto after = sim.empirical_state();
  for (core::DecisionId k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(after.p[0][k], before.p[0][k]);
  }
}

TEST(AgentSim, PartialDefectorsSlowConvergence) {
  const auto game = make_single_region_game();
  const std::vector<double> x = {0.0};  // drives everyone to P8

  AgentSimParams honest;
  honest.vehicles_per_region = 2000;
  honest.seed = 9;
  AgentBasedSim honest_sim(game, honest);
  honest_sim.init_from(game.uniform_state());

  faults::FaultParams fp;
  fp.defector_fraction = 0.5;
  const faults::FaultModel faults(fp);
  AgentBasedSim mixed_sim(game, honest, &faults);
  mixed_sim.init_from(game.uniform_state());

  for (int t = 0; t < 200; ++t) {
    honest_sim.step(x);
    mixed_sim.step(x);
  }
  // Honest population concentrates harder on P8 than the half-frozen one.
  EXPECT_GT(honest_sim.empirical_state().p[0][7],
            mixed_sim.empirical_state().p[0][7]);
}

// The revision draw contract every per-vehicle engine shares
// (core/imitation.h), pinned to fixed values: a reordered draw changes
// every engine's trajectory alike, so the engine-versus-engine equivalence
// tests cannot catch it. Vehicle 2 is held (draws nothing), and vehicle 4
// displays claim 0 while holding decision 3, so imitators copy the claim.
TEST(Imitate, DrawContractIsPinned) {
  std::vector<core::DecisionId> decisions = {0, 1, 2, 1, 3, 0, 2, 1};
  const std::vector<core::DecisionId> before = decisions;
  std::vector<core::DecisionId> shown = decisions;
  shown[4] = 0;
  const std::vector<double> fitness = {0.1, 0.9, 0.5, 0.3,
                                       1.4, 0.0, 0.65, 0.2};
  Rng rng(26);
  core::imitate(
      before, shown, /*revision_rate=*/0.9, /*imitation_scale=*/1.0, rng,
      [](std::size_t v) { return v == 2; },
      [&](std::size_t v) { return fitness[v]; },
      [&](std::size_t v, core::DecisionId d) { decisions[v] = d; });
  EXPECT_EQ(decisions,
            (std::vector<core::DecisionId>{2, 1, 2, 0, 3, 0, 2, 0}));
  EXPECT_EQ(rng(), 17508733304866525234ULL);
}

TEST(AgentSim, RejectsBadParams) {
  const auto game = make_single_region_game();
  AgentSimParams params;
  params.vehicles_per_region = 1;
  EXPECT_THROW(AgentBasedSim(game, params), ContractViolation);
  params.vehicles_per_region = 10;
  params.revision_rate = 1.5;
  EXPECT_THROW(AgentBasedSim(game, params), ContractViolation);
  params.revision_rate = 1.0;
  params.measured_fitness = true;
  params.exchange.fleet_size = 4;  // below the lattice's K = 8 classes
  EXPECT_THROW(AgentBasedSim(game, params), ContractViolation);
}

TEST(AgentSim, MeasuredFitnessStillConvergesToNoSharingAtZeroRatio) {
  // At x = 0 the data plane delivers nothing: measured fitness is pure
  // privacy cost, so share-nothing (P8) must take over — the same
  // qualitative equilibrium the analytic fitness produces.
  const auto game = make_single_region_game(/*beta=*/1.5);
  AgentSimParams params;
  params.vehicles_per_region = 300;
  params.seed = 7;
  params.measured_fitness = true;
  AgentBasedSim sim(game, params);
  sim.init_from(game.uniform_state());
  const std::vector<double> x = {0.0};
  for (int r = 0; r < 60; ++r) sim.step(x);
  EXPECT_GT(sim.empirical_state().p[0][7], 0.9);
}

TEST(AgentSim, MeasuredFitnessReproducibleAndKernelSelectable) {
  const auto game = make_single_region_game();
  const std::vector<double> x = {0.6};
  auto run = [&](perception::DataPlaneMode mode) {
    AgentSimParams params;
    params.vehicles_per_region = 100;
    params.seed = 21;
    params.measured_fitness = true;
    params.exchange.mode = mode;
    AgentBasedSim sim(game, params);
    sim.init_from(game.uniform_state());
    for (int r = 0; r < 10; ++r) sim.step(x);
    return sim.empirical_state();
  };
  // Reproducible: same seed and kernel give the identical trajectory.
  const auto exact1 = run(perception::DataPlaneMode::kPairwiseExact);
  const auto exact2 = run(perception::DataPlaneMode::kPairwiseExact);
  EXPECT_EQ(exact1.p, exact2.p);
  // The aggregated kernel runs the same dynamics (its own draws, so the
  // trajectory differs, but the state stays a valid distribution).
  const auto agg = run(perception::DataPlaneMode::kClassAggregated);
  core::check_distribution(agg.p[0]);
}

}  // namespace
}  // namespace avcp::sim
