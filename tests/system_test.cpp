#include "system/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>

#include "common/contracts.h"
#include "common/stats.h"
#include "test_support.h"

namespace avcp::system {
namespace {

using core::testing::make_chain_game;
using core::testing::make_single_region_game;

SystemParams small_params() {
  SystemParams params;
  params.vehicles_per_region = 50;
  params.seed = 3;
  return params;
}

TEST(System, EmpiricalStateIsValidDistribution) {
  const auto game = make_chain_game(3);
  CooperativePerceptionSystem sys(game, small_params());
  sys.init_from(game.uniform_state());
  const auto state = sys.empirical_state();
  ASSERT_EQ(state.p.size(), 3u);
  for (const auto& row : state.p) core::check_distribution(row);
}

TEST(System, UniverseMatchesLattice) {
  const auto game = make_single_region_game();
  const auto params = small_params();
  CooperativePerceptionSystem sys(game, params);
  EXPECT_EQ(sys.universe().num_sensors(), 3u);
  EXPECT_EQ(sys.universe().size(), 3u * params.vehicles_per_region);  // auto-sized
}

TEST(System, UniversePrivacyFollowsSensorSensitivity) {
  // Camera items must carry more privacy mass than radar items, mirroring
  // the Table II sensitivities embedded in the game's tables.
  const auto game = make_single_region_game();
  CooperativePerceptionSystem sys(game, small_params());
  const auto& universe = sys.universe();
  const double cam = universe.privacy_weight(universe.items_of_sensor(0));
  const double rad = universe.privacy_weight(universe.items_of_sensor(2));
  EXPECT_GT(cam, rad * 2.0);
}

TEST(System, RoundReportShapes) {
  const auto game = make_chain_game(2);
  CooperativePerceptionSystem sys(game, small_params());
  sys.init_from(game.uniform_state());
  core::FixedRatioController controller(0.6);
  const auto report = sys.run_round(controller);
  ASSERT_EQ(report.x.size(), 2u);
  EXPECT_DOUBLE_EQ(report.x[0], 0.6);
  ASSERT_EQ(report.mean_utility.size(), 2u);
  ASSERT_EQ(report.state.p.size(), 2u);
  for (const auto& row : report.state.p) core::check_distribution(row);
  for (const double u : report.mean_utility) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(System, ZeroRatioYieldsOwnDataUtilityOnly) {
  // At x = 0 nothing is distributed: realized utility equals the overlap of
  // a vehicle's own collection with its desires (here ~collect_fraction),
  // clearly below the full-sharing level.
  const auto game = make_single_region_game(/*beta=*/2.0);
  auto params = small_params();
  params.vehicles_per_region = 200;
  CooperativePerceptionSystem closed(game, params);
  closed.init_from(game.uniform_state());
  core::FixedRatioController zero(0.0);
  const auto closed_report = closed.run_round(zero);

  CooperativePerceptionSystem open(game, params);
  open.init_from(game.uniform_state());
  core::FixedRatioController one(1.0);
  const auto open_report = open.run_round(one);

  EXPECT_GT(open_report.mean_utility[0], closed_report.mean_utility[0] + 0.1);
}

TEST(System, RealizedFitnessRankingMatchesAnalyticModel) {
  // The plant never evaluates Eq. (4); nevertheless the measured
  // per-decision fitness must order decisions like the analytic game does
  // (rank correlation over decisions with vehicles present).
  // The analytic model assumes shared data from different vehicles is
  // pairwise disjoint (Property 3.1(d)); match that regime with sparse
  // collections over a large universe and a moderate ratio (dense
  // collections saturate every pool and compress the ranking).
  const auto game = make_single_region_game(/*beta=*/3.0);
  auto params = small_params();
  params.vehicles_per_region = 600;  // tight averages
  params.desire_fraction = 0.4;      // universe auto-sizes to the fleet
  CooperativePerceptionSystem sys(game, params);
  sys.init_from(game.uniform_state());
  core::FixedRatioController controller(0.4);
  sys.run_round(controller);

  const auto realized = sys.realized_fitness(0);
  const auto analytic = game.region_fitness(game.uniform_state(),
                                            std::vector<double>{0.4}, 0);
  // Spearman-style check: pairwise order agreement above chance.
  int agree = 0;
  int total = 0;
  for (core::DecisionId a = 0; a < 8; ++a) {
    for (core::DecisionId b = a + 1; b < 8; ++b) {
      const double ra = realized[a] - realized[b];
      const double qa = analytic[a] - analytic[b];
      if (std::abs(qa) < 1e-9) continue;
      ++total;
      if ((ra > 0) == (qa > 0)) ++agree;
    }
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(agree) / total, 0.75)
      << agree << "/" << total << " pairs agree";
}

TEST(System, PopulationDriftsTowardNoShareAtZeroRatio) {
  const auto game = make_single_region_game(/*beta=*/2.0);
  auto params = small_params();
  params.vehicles_per_region = 400;
  CooperativePerceptionSystem sys(game, params);
  sys.init_from(game.uniform_state());
  core::FixedRatioController controller(0.0);
  for (int t = 0; t < 120; ++t) sys.run_round(controller);
  // Privacy-free decisions (radar-only or none) take over.
  const auto state = sys.empirical_state();
  EXPECT_GT(state.p[0][6] + state.p[0][7], 0.85);
}

TEST(System, FdsShapesTheMeasuredPlant) {
  // End-to-end: model-based FDS drives the *measured* system into the
  // desired decision field.
  const auto game = make_single_region_game(/*beta=*/4.0);
  auto params = small_params();
  params.vehicles_per_region = 500;
  params.seed = 11;
  CooperativePerceptionSystem sys(game, params);
  sys.init_from(game.uniform_state());

  core::DesiredFields fields(1, 8);
  fields.set_target(0, 0, Interval{0.8, 1.0});
  core::FdsOptions options;
  options.max_step = 0.15;
  core::FdsController controller(game, fields, options);

  const auto rounds = sys.run_until(controller, fields, 1e-9, 250);
  EXPECT_LT(rounds, 250u) << "final p(P1) = "
                          << sys.empirical_state().p[0][0];
}

TEST(System, ExposedPrivacyTracksSharingLevel) {
  const auto game = make_single_region_game();
  auto params = small_params();
  params.vehicles_per_region = 300;
  CooperativePerceptionSystem sys(game, params);

  // All-P1 fleet exposes more privacy mass at the server than an all-P7 one.
  std::vector<double> all_p1(8, 0.0);
  all_p1[0] = 1.0;
  sys.init_from(game.broadcast_state(all_p1));
  core::FixedRatioController controller(0.5);
  const auto rich = sys.run_round(controller);

  std::vector<double> all_p7(8, 0.0);
  all_p7[6] = 1.0;
  sys.init_from(game.broadcast_state(all_p7));
  const auto lean = sys.run_round(controller);

  EXPECT_GT(rich.exposed_privacy[0], lean.exposed_privacy[0] * 2.0);
  EXPECT_GT(rich.mean_privacy[0], lean.mean_privacy[0]);
}

TEST(System, MultipleExchangesReduceFitnessNoise) {
  // Averaging fitness over repeated exchanges within a round (§II) tightens
  // the realized per-decision estimates: the across-round variance of the
  // P8 group's fitness (analytically a constant 0) shrinks.
  const auto game = make_single_region_game(/*beta=*/2.0);
  auto variance_with = [&](std::size_t exchanges) {
    auto params = small_params();
    params.vehicles_per_region = 60;
    params.exchanges_per_round = exchanges;
    params.revision_rate = 0.0;  // freeze decisions; only measure
    CooperativePerceptionSystem sys(game, params);
    sys.init_from(game.uniform_state());
    core::FixedRatioController controller(0.5);
    RunningStats stats;
    for (int t = 0; t < 40; ++t) {
      sys.run_round(controller);
      stats.add(sys.realized_fitness(0)[0]);  // P1's noisy estimate
    }
    return stats.variance();
  };
  EXPECT_LT(variance_with(6), variance_with(1));
}

TEST(System, OverlappingCollectionsSaturateUtility) {
  // Dropping the paper's disjointness assumption makes collections overlap;
  // redundant items inflate coverage, so the measured mean utility at the
  // same ratio is higher (the pool saturates) — quantifying what Property
  // 3.1(d) buys the analysis.
  const auto game = make_single_region_game(/*beta=*/2.0);
  auto utility_with = [&](bool disjoint) {
    auto params = small_params();
    params.vehicles_per_region = 120;
    params.disjoint_collections = disjoint;
    params.collect_fraction = 0.05;
    params.revision_rate = 0.0;
    params.seed = 21;
    CooperativePerceptionSystem sys(game, params);
    std::vector<double> all_p1(8, 0.0);
    all_p1[0] = 1.0;
    sys.init_from(game.broadcast_state(all_p1));
    core::FixedRatioController controller(0.3);
    double total = 0.0;
    for (int t = 0; t < 10; ++t) {
      total += sys.run_round(controller).mean_utility[0];
    }
    return total / 10.0;
  };
  EXPECT_GT(utility_with(false), utility_with(true) + 0.02);
}

TEST(System, InterRegionExchangeLiftsDataPoorRegion) {
  // Region 1 is privacy-locked (all P8) but neighbours a generous all-P1
  // region 0 with high gamma: its P1 deviants gain cross-region data, so a
  // P1 *receiver* in region 1 earns strictly more fitness with the
  // inter-region exchange enabled.
  core::GameConfig config;
  config.lattice = core::DecisionLattice(3);
  const auto tables = core::paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = 0.5;
  std::vector<core::RegionSpec> regions(2);
  regions[0].beta = 2.0;
  regions[0].gamma_self = 1.0;
  regions[0].neighbors.emplace_back(1, 0.8);
  regions[1].beta = 2.0;
  regions[1].gamma_self = 1.0;
  regions[1].neighbors.emplace_back(0, 0.8);
  const core::MultiRegionGame game(std::move(config), regions);

  auto p1_fitness_in_region1 = [&](bool inter) {
    auto params = small_params();
    params.vehicles_per_region = 150;
    params.inter_region_exchange = inter;
    params.revision_rate = 0.0;
    params.seed = 77;
    CooperativePerceptionSystem sys(game, params);
    // Region 0: all P1 at full throttle. Region 1: mostly P8 with a P1
    // minority whose fitness we track.
    core::GameState seed = game.uniform_state();
    std::fill(seed.p[0].begin(), seed.p[0].end(), 0.0);
    seed.p[0][0] = 1.0;
    std::fill(seed.p[1].begin(), seed.p[1].end(), 0.0);
    seed.p[1][0] = 0.2;
    seed.p[1][7] = 0.8;
    sys.init_from(seed);
    core::FixedRatioController controller(1.0);
    double total = 0.0;
    for (int t = 0; t < 10; ++t) {
      sys.run_round(controller);
      total += sys.realized_fitness(1)[0];
    }
    return total / 10.0;
  };
  EXPECT_GT(p1_fitness_in_region1(true), p1_fitness_in_region1(false) + 0.1);
}

TEST(System, CellFragmentationReducesPoolUtility) {
  // Splitting a region's fleet across more edge-server cells shrinks each
  // exchange pool, so the same ratio delivers less measured utility — the
  // cost of cell granularity the paper's Fig. 5 structure implies.
  const auto game = make_single_region_game(/*beta=*/2.0);
  auto utility_with = [&](std::size_t cells) {
    auto params = small_params();
    params.vehicles_per_region = 120;
    params.cells_per_region = cells;
    params.revision_rate = 0.0;
    params.seed = 31;
    CooperativePerceptionSystem sys(game, params);
    std::vector<double> all_p1(8, 0.0);
    all_p1[0] = 1.0;
    sys.init_from(game.broadcast_state(all_p1));
    core::FixedRatioController controller(0.5);
    double total = 0.0;
    for (int t = 0; t < 8; ++t) {
      total += sys.run_round(controller).mean_utility[0];
    }
    return total / 8.0;
  };
  const double one_cell = utility_with(1);
  const double many_cells = utility_with(12);
  EXPECT_GT(one_cell, many_cells + 0.05);
}

// One FNV-1a step per double of a round report (ratios, realized utility,
// privacy and exposure, the post-revision state) and per fault count.
std::uint64_t fold_report(std::uint64_t h, const RoundReport& report) {
  auto fold = [&h](std::span<const double> values) {
    for (const double v : values) {
      h = core::testing::fnv1a_word(h, std::bit_cast<std::uint64_t>(v));
    }
  };
  fold(report.x);
  fold(report.mean_utility);
  fold(report.mean_privacy);
  fold(report.exposed_privacy);
  for (const std::vector<double>& row : report.state.p) fold(row);
  h = core::testing::fnv1a_word(h, report.faults.uploads_lost);
  h = core::testing::fnv1a_word(h, report.faults.deliveries_lost);
  h = core::testing::fnv1a_word(h, report.faults.regions_down);
  return h;
}

// The round series of the measured plant, pinned bit for bit over the
// paths its scene synthesis and exact kernels take: overlapping
// collections (the collected-set sampler), several cells and exchanges,
// fractions of 1 (no draws), a desire fraction at which most vehicles draw
// nothing (the uniform fallback), upload and delivery loss inside the
// exact kernel, and the strict access rule (the self-skip never fires).
// The perfbench digests pin only the default configuration. A change that
// moves a value on purpose re-pins it and says why.
TEST(System, RoundSeriesBitsArePinnedAcrossCommits) {
  const auto chain = make_chain_game(3);
  core::GameConfig strict_config;
  strict_config.lattice = core::DecisionLattice(3);
  const auto tables = core::paper_decision_tables(strict_config.lattice);
  strict_config.utility = tables.utility;
  strict_config.privacy = tables.privacy;
  strict_config.access = core::AccessRule::kStrictSubset;
  std::vector<core::RegionSpec> regions(2);
  regions[0].beta = 1.5;
  regions[0].neighbors.emplace_back(1, 0.4);
  regions[1].beta = 2.5;
  regions[1].neighbors.emplace_back(0, 0.4);
  const core::MultiRegionGame strict(std::move(strict_config), regions);

  faults::FaultParams lossy;
  lossy.upload_loss_rate = 0.2;
  lossy.delivery_loss_rate = 0.15;
  lossy.outage_rate = 0.1;
  lossy.seed = 9;
  const faults::FaultModel faults(lossy);

  struct Case {
    const char* name;
    const core::MultiRegionGame* game;
    SystemParams params;
    const faults::FaultModel* faults;
    std::uint64_t pinned;
  };
  SystemParams base;
  base.vehicles_per_region = 20;
  base.seed = 41;
  std::vector<Case> cases;
  cases.push_back({"default", &chain, base, nullptr, 0xd7eccf3ef7840393ULL});
  SystemParams overlap = base;
  overlap.disjoint_collections = false;
  cases.push_back({"overlapping collections", &chain, overlap, nullptr,
                   0x08909c5e74f8f3c3ULL});
  SystemParams cells = base;
  cells.cells_per_region = 3;
  cells.exchanges_per_round = 2;
  cases.push_back({"three cells, two exchanges", &chain, cells, nullptr,
                   0x72187c76e497ee60ULL});
  SystemParams full = overlap;
  full.desire_fraction = 1.0;
  full.collect_fraction = 1.0;
  cases.push_back(
      {"fractions of one", &chain, full, nullptr, 0xf8d56b968f3c4934ULL});
  SystemParams sparse = base;
  sparse.desire_fraction = 0.005;
  cases.push_back(
      {"mostly empty scenes", &chain, sparse, nullptr, 0x82d06fe05dcbe08cULL});
  cases.push_back({"upload and delivery loss", &chain, base, &faults,
                   0x50036be04ed81039ULL});
  cases.push_back(
      {"strict access", &strict, base, nullptr, 0x7c5940cef94084ecULL});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CooperativePerceptionSystem sys(*c.game, c.params, c.faults);
    sys.init_from(c.game->uniform_state());
    core::FixedRatioController controller(0.6);
    std::uint64_t h = core::testing::kFnv1aBasis;
    for (int t = 0; t < 6; ++t) h = fold_report(h, sys.run_round(controller));
    EXPECT_EQ(h, c.pinned) << std::hex << h;
    if (c.faults != nullptr) {
      // The lossy case reaches both loss branches.
      EXPECT_GT(sys.fault_counters().uploads_lost, 0u);
      EXPECT_GT(sys.fault_counters().deliveries_lost, 0u);
    }
  }
}

TEST(System, RejectsDegenerateParams) {
  const auto game = make_single_region_game();
  SystemParams params = small_params();
  params.vehicles_per_region = 1;
  EXPECT_THROW(CooperativePerceptionSystem(game, params), ContractViolation);
  params = small_params();
  params.collect_fraction = 0.0;
  EXPECT_THROW(CooperativePerceptionSystem(game, params), ContractViolation);
  params = small_params();
  params.vehicles_per_region = 10;
  params.cells_per_region = 6;  // fewer than 2 vehicles per cell
  EXPECT_THROW(CooperativePerceptionSystem(game, params), ContractViolation);
}

}  // namespace
}  // namespace avcp::system
