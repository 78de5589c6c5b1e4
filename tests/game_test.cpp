#include "core/game.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/imitation.h"
#include "test_support.h"

namespace avcp::core {
namespace {

using testing::make_chain_game;
using testing::make_single_region_game;
using testing::random_simplex;

TEST(Game, RejectsMismatchedTables) {
  GameConfig config;
  config.lattice = DecisionLattice(3);
  config.utility = {1.0};  // wrong size
  config.privacy.assign(8, 0.0);
  EXPECT_THROW(MultiRegionGame(std::move(config), {RegionSpec{}}),
               ContractViolation);
}

TEST(Game, RejectsBadNeighborIndex) {
  GameConfig config;
  config.lattice = DecisionLattice(3);
  config.utility.assign(8, 1.0);
  config.privacy.assign(8, 0.0);
  RegionSpec spec;
  spec.neighbors.emplace_back(5, 1.0);  // region 5 doesn't exist
  EXPECT_THROW(MultiRegionGame(std::move(config), {spec}), ContractViolation);
}

TEST(Game, PooledUtilityOfFullShareIsPopulationAverage) {
  const auto game = make_single_region_game();
  Rng rng(3);
  const auto p = random_simplex(rng, 8);
  // Decision 0 (P1) accesses everyone: pooled = sum p_l f_l.
  double expected = 0.0;
  for (std::size_t l = 0; l < 8; ++l) {
    expected += p[l] * game.config().utility[l];
  }
  EXPECT_NEAR(game.pooled_utility(p, 0), expected, 1e-12);
}

TEST(Game, PooledUtilityOfNoShareIsZero) {
  const auto game = make_single_region_game();
  Rng rng(4);
  const auto p = random_simplex(rng, 8);
  // Decision 7 (P8) accesses only other P8 vehicles whose shared data is
  // empty: f_8 = 0, so pooled utility is 0.
  EXPECT_NEAR(game.pooled_utility(p, 7), 0.0, 1e-12);
}

TEST(Game, FitnessAtZeroRatioIsMinusPrivacy) {
  const auto game = make_single_region_game();
  const GameState state = game.uniform_state();
  const std::vector<double> x = {0.0};
  for (DecisionId k = 0; k < 8; ++k) {
    EXPECT_NEAR(game.fitness(state, x, 0, k), -game.config().privacy[k],
                1e-12);
  }
}

TEST(Game, FitnessHandComputedTwoGroups) {
  // Single region, beta = 2, gamma_ii = 1, x = 0.5. Population: 60% P1,
  // 40% P8. For decision P1 (accesses all):
  //   pooled = 0.6 * f1 + 0.4 * f8 = 0.6 * 1 + 0 = 0.6
  //   q = 2 * 0.5 * 1 * 0.6 - g1 = 0.6 - 1.0 = -0.4.
  const auto game = make_single_region_game(/*beta=*/2.0);
  std::vector<double> p(8, 0.0);
  p[0] = 0.6;
  p[7] = 0.4;
  const GameState state = game.broadcast_state(p);
  const std::vector<double> x = {0.5};
  EXPECT_NEAR(game.fitness(state, x, 0, 0), -0.4, 1e-12);
  // For P8: pooled = 0, q = -g8 = 0.
  EXPECT_NEAR(game.fitness(state, x, 0, 7), 0.0, 1e-12);
}

TEST(Game, InterRegionFitnessAddsNeighborPool) {
  // Two regions; region 0 neighbours region 1 with gamma = 0.5. Region 1 is
  // all P1 sharers, region 0 is all P8.
  GameConfig config;
  config.lattice = DecisionLattice(3);
  const auto tables = paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  std::vector<RegionSpec> regions(2);
  regions[0].beta = 1.0;
  regions[0].gamma_self = 1.0;
  regions[0].neighbors.emplace_back(1, 0.5);
  regions[1].beta = 1.0;
  regions[1].gamma_self = 1.0;
  const MultiRegionGame game(std::move(config), std::move(regions));

  GameState state;
  std::vector<double> all_p1(8, 0.0);
  all_p1[0] = 1.0;
  std::vector<double> all_p8(8, 0.0);
  all_p8[7] = 1.0;
  state.p = {all_p8, all_p1};

  const std::vector<double> x = {1.0, 1.0};
  // In region 0, a P1 vehicle reads: inner pool (all P8 -> 0) plus neighbour
  // pool (all P1 -> f1 = 1) * gamma 0.5 * x 1 = 0.5; minus g1 = 1.
  EXPECT_NEAR(game.fitness(state, x, 0, 0), 0.5 - 1.0, 1e-12);
  // A P8 vehicle in region 0 reads nothing: q = 0.
  EXPECT_NEAR(game.fitness(state, x, 0, 7), 0.0, 1e-12);
}

TEST(Game, AverageFitnessIsExpectation) {
  const auto game = make_single_region_game();
  Rng rng(9);
  const auto p = random_simplex(rng, 8);
  const GameState state = game.broadcast_state(p);
  const std::vector<double> x = {0.7};
  const auto q = game.region_fitness(state, x, 0);
  double expected = 0.0;
  for (std::size_t k = 0; k < 8; ++k) expected += p[k] * q[k];
  EXPECT_NEAR(game.average_fitness(state, x, 0), expected, 1e-12);
}

TEST(Game, ReplicatorPreservesSimplex) {
  const auto game = make_chain_game(3);
  Rng rng(11);
  GameState state;
  for (int i = 0; i < 3; ++i) state.p.push_back(random_simplex(rng, 8));
  const std::vector<double> x = {0.3, 0.6, 0.9};
  for (int t = 0; t < 50; ++t) {
    game.replicator_step(state, x);
    for (const auto& row : state.p) {
      check_distribution(row, 1e-9);
    }
  }
}

TEST(Game, ExtinctDecisionStaysExtinctWithoutMutation) {
  const auto game = make_single_region_game();
  std::vector<double> p(8, 0.0);
  p[0] = 0.5;
  p[6] = 0.5;
  GameState state = game.broadcast_state(p);
  const std::vector<double> x = {0.8};
  for (int t = 0; t < 30; ++t) {
    game.replicator_step(state, x);
    for (const DecisionId dead : {1, 2, 3, 4, 5, 7}) {
      EXPECT_EQ(state.p[0][dead], 0.0);
    }
  }
}

TEST(Game, MutationKeepsFloor) {
  const auto game = make_single_region_game(1.5, 2.0, 1.0, /*mutation=*/0.01);
  std::vector<double> p(8, 0.0);
  p[0] = 1.0;
  GameState state = game.broadcast_state(p);
  const std::vector<double> x = {0.8};
  game.replicator_step(state, x);
  for (DecisionId k = 0; k < 8; ++k) {
    EXPECT_GE(state.p[0][k], 0.01 / 8.0 - 1e-12);
  }
  check_distribution(state.p[0], 1e-9);
}

TEST(Game, ZeroRatioConvergesToNoSharing) {
  // With x = 0 the utility term vanishes and privacy cost alone drives the
  // dynamics: the no-share decision P8 (g = 0) must take over.
  const auto game = make_single_region_game();
  GameState state = game.uniform_state();
  const std::vector<double> x = {0.0};
  for (int t = 0; t < 400; ++t) game.replicator_step(state, x);
  EXPECT_GT(state.p[0][7], 0.95);
}

TEST(Game, FullRatioHighBetaConvergesToFullSharing) {
  // With x = 1 and a strong utility coefficient, sharing everything (P1)
  // dominates: it reads every group's data at modest extra privacy cost.
  const auto game = make_single_region_game(/*beta=*/4.0);
  GameState state = game.uniform_state();
  const std::vector<double> x = {1.0};
  for (int t = 0; t < 400; ++t) game.replicator_step(state, x);
  EXPECT_GT(state.p[0][0], 0.95);
}

TEST(Game, FixedPointIsStationary) {
  // A pure population at a strictly dominant decision does not move.
  const auto game = make_single_region_game(/*beta=*/4.0);
  std::vector<double> p(8, 0.0);
  p[0] = 1.0;
  GameState state = game.broadcast_state(p);
  const std::vector<double> x = {1.0};
  game.replicator_step(state, x);
  EXPECT_NEAR(state.p[0][0], 1.0, 1e-12);
}

TEST(Game, UniformStateIsUniform) {
  const auto game = make_chain_game(4);
  const GameState state = game.uniform_state();
  ASSERT_EQ(state.p.size(), 4u);
  for (const auto& row : state.p) {
    for (const double v : row) {
      EXPECT_DOUBLE_EQ(v, 1.0 / 8.0);
    }
  }
}

TEST(Game, BroadcastValidatesSimplex) {
  const auto game = make_single_region_game();
  std::vector<double> bad(8, 0.0);
  bad[0] = 0.7;  // sums to 0.7
  EXPECT_THROW(game.broadcast_state(bad), ContractViolation);
  bad[0] = -0.1;
  bad[1] = 1.1;
  EXPECT_THROW(game.broadcast_state(bad), ContractViolation);
}

TEST(Game, StrictAccessExcludesOwnGroup) {
  GameConfig config;
  config.lattice = DecisionLattice(3);
  const auto tables = paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.access = AccessRule::kStrictSubset;
  const MultiRegionGame game(std::move(config), {RegionSpec{}});

  // Entire population at P1: under the strict rule P1 vehicles cannot read
  // other P1 vehicles, so the pooled utility at decision 0 is 0.
  std::vector<double> p(8, 0.0);
  p[0] = 1.0;
  EXPECT_NEAR(game.pooled_utility(p, 0), 0.0, 1e-12);
}

TEST(Game, ReplicatorStepIsEq5OverRegionFitness) {
  // replicator_step evaluates Eq. (4) from one pooled-utility table per step
  // and updates rows in place; the FDS probes evaluate it through
  // region_fitness. Both must give the same bits, so Eq. (5) is applied here
  // to region_fitness in scalar code and compared exactly, with and without
  // the mutation floor, for steps that do and do not hit the growth floor.
  const auto chain = make_chain_game(5, 1.0, 2.5, 1.0, 0.4, /*eta=*/4.0);
  int floored = 0;  // growth factors clamped at the floor
  for (const double mutation : {0.0, 0.01}) {
    GameConfig config = chain.config();
    config.mutation = mutation;
    const MultiRegionGame game(config, std::vector<RegionSpec>(
                                           chain.regions().begin(),
                                           chain.regions().end()));
    Rng rng(mutation > 0.0 ? 19 : 17);
    GameState state;
    for (int i = 0; i < 5; ++i) state.p.push_back(random_simplex(rng, 8));
    for (int t = 0; t < 40; ++t) {
      std::vector<double> x(5);
      for (double& v : x) v = rng.uniform();
      GameState expected = state;
      for (RegionId i = 0; i < 5; ++i) {
        const std::vector<double> q = game.region_fitness(state, x, i);
        const double qbar = game.average_fitness(state, x, i);
        std::vector<double>& row = expected.p[i];
        double sum = 0.0;
        for (DecisionId d = 0; d < 8; ++d) {
          const double factor = 1.0 + config.step_size * (q[d] - qbar);
          floored += factor < config.min_growth_factor ? 1 : 0;
          row[d] = state.p[i][d] * std::max(factor, config.min_growth_factor);
          sum += row[d];
        }
        if (sum <= 0.0) {
          row = state.p[i];
          sum = 1.0;
        }
        for (double& v : row) {
          v = v / sum;
          if (mutation > 0.0) v = (1.0 - mutation) * v + mutation / 8.0;
        }
      }
      game.replicator_step(state, x);
      for (RegionId i = 0; i < 5; ++i) {
        for (DecisionId d = 0; d < 8; ++d) {
          ASSERT_EQ(state.p[i][d], expected.p[i][d])
              << "mutation " << mutation << " step " << t << " region " << i
              << " decision " << d;
        }
      }
    }
  }
  EXPECT_GT(floored, 0);
}

// Replicator monotonicity sweep: a decision strictly fitter than the
// average must grow, strictly less fit must shrink (random states / ratios).
class ReplicatorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicatorSweep, GrowthMatchesFitnessSign) {
  // Small step size keeps every growth factor positive, so the clamp and
  // renormalisation in replicator_step are inactive and the sign property
  // holds exactly.
  const auto game = make_single_region_game(1.5, /*eta=*/0.05);
  Rng rng(GetParam());
  auto p = random_simplex(rng, 8);
  GameState state = game.broadcast_state(p);
  const std::vector<double> x = {rng.uniform()};

  const auto q = game.region_fitness(state, x, 0);
  const double qbar = game.average_fitness(state, x, 0);
  GameState next = state;
  game.replicator_step(next, x);

  for (DecisionId k = 0; k < 8; ++k) {
    if (state.p[0][k] <= 1e-12) continue;
    const double diff = q[k] - qbar;
    if (diff > 1e-9) {
      EXPECT_GT(next.p[0][k], state.p[0][k]) << "k=" << k;
    } else if (diff < -1e-9) {
      EXPECT_LT(next.p[0][k], state.p[0][k]) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStates, ReplicatorSweep,
                         ::testing::Range<std::uint64_t>(1, 26));

// The revision draw contract every per-vehicle engine shares
// (core/imitation.h), pinned to fixed values: a reordered draw changes
// every engine's trajectory alike, so the engine-versus-engine equivalence
// tests cannot catch it. Vehicle 2 is held (draws nothing), and vehicle 4
// displays claim 0 while holding decision 3, so imitators copy the claim.
TEST(Imitate, DrawContractIsPinned) {
  std::vector<DecisionId> decisions = {0, 1, 2, 1, 3, 0, 2, 1};
  const std::vector<DecisionId> before = decisions;
  std::vector<DecisionId> shown = decisions;
  shown[4] = 0;
  const std::vector<double> fitness = {0.1, 0.9, 0.5, 0.3,
                                       1.4, 0.0, 0.65, 0.2};
  Rng rng(26);
  imitate(
      before, shown, /*revision_rate=*/0.9, /*imitation_scale=*/1.0, rng,
      [](std::size_t v) { return v == 2; },
      [&](std::size_t v) { return fitness[v]; },
      [&](std::size_t v, DecisionId d) { decisions[v] = d; });
  EXPECT_EQ(decisions, (std::vector<DecisionId>{2, 1, 2, 0, 3, 0, 2, 0}));
  EXPECT_EQ(rng(), 17508733304866525234ULL);
}

}  // namespace
}  // namespace avcp::core
