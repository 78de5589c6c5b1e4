// The service layer's contracts: the zero-churn fleet as the repo's
// finite-population engine (the epoch loop IS the round loop; its
// trajectory is pinned and tracks Eq. (5) at large N), thread-count
// invariance under full chaos (churn + faults + attackers + load-coupled
// re-clustering), graceful degradation under region outages, reputation
// state that follows vehicles across regions, and mid-stream
// checkpoint/resume equivalence — including the SIGTERM drain-and-flush
// path through run_with_recovery.
#include "service/service_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <span>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/policy.h"
#include "checkpoint/recovery.h"
#include "common/contracts.h"
#include "common/serial.h"
#include "core/fds.h"
#include "faults/degraded_controller.h"
#include "faults/fault_model.h"
#include "roadnet/builders.h"
#include "service/shutdown.h"
#include "test_support.h"
#include "zero_churn_fleet.h"

namespace avcp {
namespace {

namespace fs = std::filesystem;
using core::testing::fnv1a_word;
using core::testing::kFnv1aBasis;
using core::testing::make_chain_game;
using core::testing::make_single_region_game;
using core::testing::random_simplex;
using service::ServiceEngine;
using service::ServiceParams;
using service::VehicleRecord;
using service::testing::empirical_from_fleet;
using service::testing::ZeroChurnFleet;

constexpr std::size_t kRegions = 4;

/// Non-uniform but valid per-region distributions, deterministic.
core::GameState seeded_state(const core::MultiRegionGame& game,
                             std::uint64_t seed) {
  Rng rng(seed);
  core::GameState state = game.uniform_state();
  for (auto& row : state.p) {
    row = random_simplex(rng, row.size());
  }
  return state;
}

void expect_engines_equal(const ServiceEngine& a, const ServiceEngine& b) {
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.fleet(), b.fleet());  // exact: every field, every bit
  EXPECT_EQ(a.x(), b.x());
  EXPECT_EQ(a.true_state().p, b.true_state().p);
  EXPECT_EQ(a.observed_state().p, b.observed_state().p);
  EXPECT_EQ(a.staleness(), b.staleness());
  EXPECT_TRUE(a.counters() == b.counters());
}

// ---------------------------------------------------------------------------
// Parameter validation
// ---------------------------------------------------------------------------

TEST(ServiceParams, ValidateRejectsBadFields) {
  ServiceParams good;
  EXPECT_NO_THROW(good.validate());

  ServiceParams p = good;
  p.vehicles_per_region = 1;  // nobody to imitate
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.revision_rate = 1.5;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.imitation_scale = 0.0;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.attacker_fraction = -0.1;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.churn.migrate_rate = 2.0;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.degraded.max_step = 0.0;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.reputation.decay = 1.0;  // EWMA would never admit new evidence
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.reputation.rehab_threshold = p.reputation.quarantine_threshold + 1.0;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.congestion_alpha = -0.5;
  EXPECT_THROW(p.validate(), ContractViolation);

  p = good;
  p.staleness_budget = 2'000'000;  // effectively unbounded shedding
  EXPECT_THROW(p.validate(), ContractViolation);
}

TEST(ServiceEngine, FleetModeRequiresFinalizedGraph) {
  const auto game = make_chain_game(kRegions);
  core::FixedRatioController inner(0.5);
  EXPECT_THROW(ServiceEngine(game, inner, nullptr, ServiceParams{}),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Zero-churn fleet: the finite-population engine
// ---------------------------------------------------------------------------

// With churn off and congestion_alpha == 0 every region keeps its N
// vehicles and one epoch is one paper round: a finite population revising
// by pairwise proportional imitation, whose large-N limit is the replicator
// dynamics of Eq. (5). The pin folds every epoch's ratios and fleet
// distribution on a chain with report loss, outages (a down region's fleet
// holds; the degraded wrapper steers blind regions) and three lanes. The
// constant is also the trajectory of the batch agent simulator this engine
// replaced, so a changed stream key, draw order or outage hold fails here.
TEST(ServiceEngine, ZeroChurnTrajectoryIsPinned) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);

  faults::FaultParams fp;
  fp.report_loss_rate = 0.15;
  fp.outage_rate = 0.05;
  fp.seed = 7;
  const faults::FaultModel faults(fp);

  ServiceParams sp;
  sp.vehicles_per_region = 12;
  sp.revision_rate = 0.9;
  sp.imitation_scale = 0.7;
  sp.seed = 123;
  sp.num_threads = 3;
  sp.degraded.staleness_budget = 2;
  sp.degraded.max_step = 0.05;
  core::FixedRatioController inner(0.7);
  ServiceEngine svc(game, inner, &graph, sp, &faults);
  svc.init(seeded_state(game, 11), std::vector<double>(kRegions, 0.5));

  std::uint64_t h = kFnv1aBasis;
  for (std::size_t t = 0; t < 40; ++t) {
    svc.run_epoch();
    for (const double v : svc.x()) {
      h = fnv1a_word(h, std::bit_cast<std::uint64_t>(v));
    }
    for (const std::vector<double>& row : empirical_from_fleet(game, svc)) {
      for (const double v : row) {
        h = fnv1a_word(h, std::bit_cast<std::uint64_t>(v));
      }
    }
  }
  EXPECT_EQ(h, 0xa2e9dcc4ebcb498fULL);
  EXPECT_EQ(svc.epoch(), 40u);
  EXPECT_EQ(svc.counters().epochs, 40u);
  EXPECT_EQ(svc.counters().joins + svc.counters().leaves +
                svc.counters().migrations,
            0u);
  EXPECT_EQ(svc.counters().reclusters, 0u);  // alpha == 0: frozen clustering
}

TEST(ZeroChurnFleet, InitFromApproximatesTargetDistribution) {
  const auto game = make_single_region_game();
  ServiceParams params;
  params.vehicles_per_region = 20000;
  params.seed = 3;
  std::vector<double> p(8, 0.0);
  p[0] = 0.5;
  p[4] = 0.3;
  p[7] = 0.2;
  const ZeroChurnFleet fleet(game, params, 0.5, game.broadcast_state(p));
  const auto state = empirical_from_fleet(game, fleet.svc);
  for (core::DecisionId k = 0; k < 8; ++k) {
    EXPECT_NEAR(state[0][k], p[k], 0.02) << "k=" << k;
  }
}

TEST(ZeroChurnFleet, StepPreservesPopulationSize) {
  const auto game = make_single_region_game();
  ServiceParams params;
  params.vehicles_per_region = 100;
  ZeroChurnFleet fleet(game, params, 0.5, game.uniform_state());
  const auto initial = empirical_from_fleet(game, fleet.svc);
  ASSERT_EQ(initial.size(), 1u);
  core::check_distribution(initial[0]);
  for (int t = 0; t < 5; ++t) {
    fleet.svc.run_epoch();
    EXPECT_EQ(fleet.svc.fleet().size(), 100u);
    core::check_distribution(empirical_from_fleet(game, fleet.svc)[0]);
  }
}

TEST(ZeroChurnFleet, ConvergesToNoSharingAtZeroRatio) {
  const auto game = make_single_region_game();
  ServiceParams params;
  params.vehicles_per_region = 1000;
  params.seed = 11;
  ZeroChurnFleet fleet(game, params, 0.0, game.uniform_state());
  for (int t = 0; t < 300; ++t) fleet.svc.run_epoch();
  EXPECT_GT(empirical_from_fleet(game, fleet.svc)[0][7], 0.9);
}

// The finite-population check of Eq. (5): pairwise proportional imitation
// approximates the replicator flow, so with a large population the two
// trajectories stay close for a while. A revising vehicle imitates a random
// peer with probability proportional to the fitness gain, which reproduces
// the replicator with an extra 1/2-ish slowdown factor; we compare loosely.
TEST(ZeroChurnFleet, TracksMeanFieldTrajectory) {
  const double beta = 3.0;
  const auto game = make_single_region_game(beta, /*eta=*/0.25);
  ServiceParams params;
  params.vehicles_per_region = 30000;
  params.imitation_scale = 0.25;
  params.revision_rate = 1.0;
  params.seed = 5;
  ZeroChurnFleet fleet(game, params, 0.9, game.uniform_state());

  core::GameState mean_field = game.uniform_state();
  const std::vector<double> x = {0.9};
  for (int t = 0; t < 120; ++t) {
    fleet.svc.run_epoch();
    game.replicator_step(mean_field, x);
  }
  // Both should have concentrated on the same dominant decision.
  const auto empirical = empirical_from_fleet(game, fleet.svc);
  core::DecisionId mf_best = 0;
  core::DecisionId ab_best = 0;
  for (core::DecisionId k = 1; k < 8; ++k) {
    if (mean_field.p[0][k] > mean_field.p[0][mf_best]) mf_best = k;
    if (empirical[0][k] > empirical[0][ab_best]) ab_best = k;
  }
  EXPECT_EQ(mf_best, ab_best);
  EXPECT_GT(empirical[0][ab_best], 0.5);
}

// Free-riders (attacker_fraction) hold their decision and draw nothing:
// a fully free-riding fleet is frozen.
TEST(ZeroChurnFleet, FreeRidersNeverRevise) {
  const auto game = make_single_region_game();
  ServiceParams params;
  params.vehicles_per_region = 2000;
  params.attacker_fraction = 1.0;  // everyone frozen
  ZeroChurnFleet fleet(game, params, 0.5, game.uniform_state());
  const auto before = empirical_from_fleet(game, fleet.svc);
  for (int t = 0; t < 20; ++t) fleet.svc.run_epoch();
  const auto after = empirical_from_fleet(game, fleet.svc);
  for (core::DecisionId k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(after[0][k], before[0][k]);
  }
}

TEST(ZeroChurnFleet, PartialFreeRidersSlowConvergence) {
  const auto game = make_single_region_game();
  ServiceParams honest;
  honest.vehicles_per_region = 2000;
  honest.seed = 9;
  ServiceParams mixed = honest;
  mixed.attacker_fraction = 0.5;
  // x = 0 drives everyone to P8.
  ZeroChurnFleet honest_fleet(game, honest, 0.0, game.uniform_state());
  ZeroChurnFleet mixed_fleet(game, mixed, 0.0, game.uniform_state());
  for (int t = 0; t < 200; ++t) {
    honest_fleet.svc.run_epoch();
    mixed_fleet.svc.run_epoch();
  }
  // Honest population concentrates harder on P8 than the half-frozen one.
  EXPECT_GT(empirical_from_fleet(game, honest_fleet.svc)[0][7],
            empirical_from_fleet(game, mixed_fleet.svc)[0][7]);
}

// ---------------------------------------------------------------------------
// Full-chaos configuration shared by the invariance and resume tests
// ---------------------------------------------------------------------------

ServiceParams chaos_params(std::size_t threads) {
  ServiceParams sp;
  sp.vehicles_per_region = 12;
  sp.revision_rate = 0.9;
  sp.imitation_scale = 0.7;
  sp.seed = 42;
  sp.num_threads = threads;
  sp.attacker_fraction = 0.25;
  sp.churn.leave_rate = 0.03;
  sp.churn.migrate_rate = 0.10;
  sp.churn.join_slots = 5;
  sp.churn.join_rate = 0.4;
  sp.churn.seed = 13;
  sp.congestion_alpha = 0.05;
  sp.overload_events = 3;
  sp.staleness_budget = 2;
  sp.reputation.decay = 0.5;
  sp.reputation.quarantine_threshold = 0.3;
  sp.reputation.rehab_threshold = 0.05;
  sp.reputation.rehab_rounds = 50;
  sp.reputation.min_rounds = 3;
  return sp;
}

faults::FaultModel chaos_faults() {
  faults::FaultParams fp;
  fp.report_loss_rate = 0.10;
  fp.outage_rate = 0.03;
  fp.seed = 21;
  return faults::FaultModel(fp);
}

TEST(ServiceEngine, TrajectoryInvariantAcrossThreadCounts) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  const auto faults = chaos_faults();
  const core::GameState initial = seeded_state(game, 29);
  const std::vector<double> x0(kRegions, 0.5);

  // deque: ServiceEngine owns a ThreadPool and is intentionally immovable.
  std::deque<ServiceEngine> engines;
  std::deque<core::FixedRatioController> inners;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    inners.emplace_back(0.7);
    engines.emplace_back(game, inners.back(), &graph, chaos_params(threads),
                         &faults);
    engines.back().init(initial, x0);
  }
  for (std::size_t t = 0; t < 30; ++t) {
    for (ServiceEngine& e : engines) e.run_epoch();
  }
  expect_engines_equal(engines[0], engines[1]);
  expect_engines_equal(engines[0], engines[2]);
  // The chaos config actually exercised everything it promises to.
  const service::ServiceCounters& c = engines[0].counters();
  EXPECT_GT(c.joins, 0u);
  EXPECT_GT(c.leaves, 0u);
  EXPECT_GT(c.migrations, 0u);
  EXPECT_GT(c.recluster_deferred, 0u);
  EXPECT_GT(c.betweenness_chunks_recomputed, 0u);
  EXPECT_GT(c.quarantines, 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation under a scheduled outage
// ---------------------------------------------------------------------------

TEST(ServiceEngine, OutageFreezesRegionAndDegradesController) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);

  faults::FaultParams fp;
  fp.outages.push_back({/*region=*/1, /*first_round=*/5, /*duration=*/5});
  const faults::FaultModel faults(fp);

  ServiceParams sp;
  sp.vehicles_per_region = 10;
  sp.seed = 5;
  sp.degraded.staleness_budget = 2;
  core::FixedRatioController inner(0.6);
  ServiceEngine svc(game, inner, &graph, sp, &faults);
  svc.init(seeded_state(game, 31), std::vector<double>(kRegions, 0.5));

  for (std::size_t t = 0; t < 5; ++t) svc.run_epoch();
  auto frozen = [&] {
    std::vector<core::DecisionId> d;
    for (const VehicleRecord& rec : svc.fleet()) {
      if (rec.region == 1) d.push_back(rec.decision);
    }
    return d;
  };
  const auto before = frozen();
  for (std::size_t t = 5; t < 10; ++t) {
    svc.run_epoch();
    EXPECT_EQ(frozen(), before) << "epoch " << t;  // fleet holds during outage
  }
  // Three consecutive blind epochs exceed the staleness budget of 2: the
  // controller is running the fallback for region 1 by the window's end.
  EXPECT_TRUE(svc.controller().degraded(1));
  EXPECT_EQ(svc.counters().outage_region_epochs, 5u);

  svc.run_epoch();  // epoch 10: the report resumes
  EXPECT_FALSE(svc.controller().degraded(1));
}

// ---------------------------------------------------------------------------
// Reputation follows vehicles across regions
// ---------------------------------------------------------------------------

TEST(ServiceEngine, QuarantineTargetsAttackersAndSurvivesMigration) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);

  ServiceParams sp;
  sp.vehicles_per_region = 12;
  sp.seed = 77;
  sp.attacker_fraction = 0.3;
  sp.churn.migrate_rate = 0.2;
  sp.churn.seed = 5;
  sp.reputation.decay = 0.5;
  sp.reputation.quarantine_threshold = 0.3;
  sp.reputation.rehab_threshold = 0.05;
  sp.reputation.rehab_rounds = 50;
  sp.reputation.min_rounds = 3;
  core::FixedRatioController inner(0.8);
  ServiceEngine svc(game, inner, &graph, sp);
  svc.init(seeded_state(game, 41), std::vector<double>(kRegions, 0.8));

  struct Seen {
    core::RegionId region = 0;
    bool quarantined = false;
  };
  std::map<std::uint64_t, Seen> prev;
  bool quarantined_vehicle_migrated = false;
  for (std::size_t t = 0; t < 40; ++t) {
    svc.run_epoch();
    for (const VehicleRecord& rec : svc.fleet()) {
      // Honest vehicles upload exactly their claim: residual 0, quarantine
      // impossible. Only designated free-riders may ever trip it.
      if (rec.quarantined) {
        EXPECT_TRUE(rec.attacker) << "id " << rec.id;
      }
      const auto it = prev.find(rec.id);
      if (it != prev.end() && it->second.quarantined && rec.quarantined &&
          it->second.region != rec.region) {
        quarantined_vehicle_migrated = true;  // the record moved intact
      }
      prev[rec.id] = {rec.region, rec.quarantined};
    }
  }
  EXPECT_GT(svc.counters().quarantines, 0u);
  EXPECT_GT(svc.counters().migrations, 0u);
  EXPECT_GT(svc.quarantined_count(), 0u);
  EXPECT_TRUE(quarantined_vehicle_migrated);
  EXPECT_EQ(svc.counters().releases, 0u);  // persistent offenders stay in
}

// ---------------------------------------------------------------------------
// Checkpoint/resume equivalence mid-stream
// ---------------------------------------------------------------------------

TEST(ServiceEngine, ResumeMidChurnIsBitIdentical) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  const auto faults = chaos_faults();
  const core::GameState initial = seeded_state(game, 53);
  const std::vector<double> x0(kRegions, 0.5);

  core::FixedRatioController inner_a(0.7);
  ServiceEngine a(game, inner_a, &graph, chaos_params(2), &faults);
  a.init(initial, x0);
  for (std::size_t t = 0; t < 25; ++t) a.run_epoch();

  core::FixedRatioController inner_b(0.7);
  ServiceEngine b(game, inner_b, &graph, chaos_params(2), &faults);
  b.init(initial, x0);
  for (std::size_t t = 0; t < 10; ++t) b.run_epoch();
  Serializer snap;
  b.save_state(snap);

  core::FixedRatioController inner_c(0.7);
  ServiceEngine c(game, inner_c, &graph, chaos_params(2), &faults);
  Deserializer d(snap.bytes());
  c.load_state(d);
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(c.epoch(), 10u);
  for (std::size_t t = 10; t < 25; ++t) c.run_epoch();

  expect_engines_equal(a, c);
}

// Construction builds no clustering, so it runs no betweenness pass: a
// cold start builds one in init() at zero loads, a restore one in
// load_state() at the snapshot's loads. Before either, clustering() is
// null, a rejected snapshot leaves it null, and save_state() writes the
// bytes it wrote when construction built a zero-load clustering (pinned at
// that commit).
TEST(ServiceEngine, ConstructionRunsNoBetweennessPass) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  core::FixedRatioController inner(0.7);
  ServiceEngine source(game, inner, &graph, chaos_params(1));
  EXPECT_EQ(source.clustering(), nullptr);
  EXPECT_THROW(source.run_epoch(), ContractViolation);
  Serializer fresh;
  source.save_state(fresh);
  std::uint64_t h = kFnv1aBasis;
  for (const std::byte b : fresh.bytes()) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(b));
  }
  EXPECT_EQ(fresh.bytes().size(), 1223u);
  EXPECT_EQ(h, 0xa49d51fbe6148f53ULL);

  source.init(seeded_state(game, 53), std::vector<double>(kRegions, 0.5));
  ASSERT_NE(source.clustering(), nullptr);
  for (std::size_t t = 0; t < 3; ++t) source.run_epoch();
  Serializer snap;
  source.save_state(snap);

  core::FixedRatioController inner_target(0.7);
  ServiceEngine target(game, inner_target, &graph, chaos_params(1));
  EXPECT_EQ(target.clustering(), nullptr);
  Deserializer cut(std::span<const std::byte>(snap.bytes()).first(
      snap.bytes().size() / 2));
  EXPECT_THROW(target.load_state(cut), SerialError);
  EXPECT_EQ(target.clustering(), nullptr);
  Deserializer d(snap.bytes());
  target.load_state(d);
  ASSERT_NE(target.clustering(), nullptr);
  EXPECT_EQ(target.clustering()->centrality(),
            source.clustering()->centrality());
  EXPECT_EQ(target.clustering()->clustering().region_of,
            source.clustering()->clustering().region_of);
}

// init() is a cold start whatever the engine did before: recovery's reset
// hook calls it on an engine that may have run. It must seed the fleet over
// the zero-load regions, as a fresh engine does, not over the clustering
// of the loads the engine last ran with.
TEST(ServiceEngine, ReinitSeedsLikeAFreshEngine) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  const core::GameState initial = seeded_state(game, 61);
  const std::vector<double> x0(kRegions, 0.5);
  core::FixedRatioController inner_used(0.7);
  ServiceEngine used(game, inner_used, &graph, chaos_params(1));
  used.init(initial, x0);
  for (std::size_t t = 0; t < 8; ++t) used.run_epoch();
  used.init(initial, x0);
  core::FixedRatioController inner_fresh(0.7);
  ServiceEngine fresh(game, inner_fresh, &graph, chaos_params(1));
  fresh.init(initial, x0);

  Serializer a;
  used.save_state(a);
  Serializer b;
  fresh.save_state(b);
  EXPECT_TRUE(a.bytes() == b.bytes());
  for (std::size_t t = 0; t < 3; ++t) {
    used.run_epoch();
    fresh.run_epoch();
  }
  expect_engines_equal(used, fresh);
}

TEST(ServiceEngine, LoadStateRejectsMismatchedConfiguration) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  core::FixedRatioController inner(0.7);
  ServiceEngine a(game, inner, &graph, chaos_params(1));
  a.init(seeded_state(game, 53), std::vector<double>(kRegions, 0.5));
  for (std::size_t t = 0; t < 3; ++t) a.run_epoch();
  Serializer snap;
  a.save_state(snap);

  ServiceParams other = chaos_params(1);
  other.seed = 43;  // different stream universe: snapshot must be rejected
  core::FixedRatioController inner_b(0.7);
  ServiceEngine b(game, inner_b, &graph, other);
  Deserializer d(snap.bytes());
  EXPECT_THROW(b.load_state(d), SerialError);
}

// A snapshot that fails its last read must leave the service exactly as it
// was: its bytes, and the epoch it runs next, equal an untouched twin's. The
// 16-byte cut fails in the last section load_state reads (the counters, or
// the report rings when the backhaul is wired); the half cut fails in the
// fleet.
TEST(ServiceEngine, RejectedSnapshotLeavesServiceUntouched) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  const auto faults = chaos_faults();
  const core::GameState initial = seeded_state(game, 59);
  const std::vector<double> x0(kRegions, 0.5);
  ServiceParams wired = chaos_params(1);
  wired.net.drop_rate = 0.3;
  wired.net.delay_rate = 0.25;
  wired.net.seed = 17;
  for (const ServiceParams& params : {chaos_params(1), wired}) {
    core::FixedRatioController inner_old(0.7);
    ServiceEngine old(game, inner_old, &graph, params, &faults);
    old.init(initial, x0);
    for (std::size_t t = 0; t < 2; ++t) old.run_epoch();
    Serializer snap;
    old.save_state(snap);
    const std::span<const std::byte> bytes(snap.bytes());

    for (const std::size_t keep : {bytes.size() - 16, bytes.size() / 2}) {
      core::FixedRatioController inner_svc(0.7);
      ServiceEngine svc(game, inner_svc, &graph, params, &faults);
      core::FixedRatioController inner_twin(0.7);
      ServiceEngine twin(game, inner_twin, &graph, params, &faults);
      for (ServiceEngine* e : {&svc, &twin}) {
        e->init(initial, x0);
        for (std::size_t t = 0; t < 5; ++t) e->run_epoch();
      }
      Deserializer d(bytes.first(keep));
      EXPECT_THROW(svc.load_state(d), SerialError);

      Serializer got;
      svc.save_state(got);
      Serializer want;
      twin.save_state(want);
      EXPECT_TRUE(got.bytes() == want.bytes()) << "kept " << keep;
      svc.run_epoch();
      twin.run_epoch();
      expect_engines_equal(svc, twin);
    }
  }
}

// The fleet size follows the 51-byte fingerprint and clocks. Overwritten
// with a count the payload cannot hold, it must be a SerialError (which
// recovery falls back on), not a bad_alloc from reserving the fleet.
TEST(ServiceEngine, HugeFleetSizeRejected) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  core::FixedRatioController inner(0.7);
  ServiceEngine source(game, inner, &graph, chaos_params(1));
  source.init(seeded_state(game, 53), std::vector<double>(kRegions, 0.5));
  for (std::size_t t = 0; t < 3; ++t) source.run_epoch();
  Serializer snap;
  source.save_state(snap);
  constexpr std::size_t kFleetSizeAt = 3 * 8 + 3 + 3 * 8;
  {
    Deserializer d(snap.bytes());
    d.skip(kFleetSizeAt);
    ASSERT_EQ(d.get_u64(), source.fleet().size());
  }
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::vector<std::byte> bytes = snap.bytes();
    Serializer patch;
    patch.put_u64(count);
    std::copy(patch.bytes().begin(), patch.bytes().end(),
              bytes.begin() + kFleetSizeAt);
    core::FixedRatioController inner_target(0.7);
    ServiceEngine target(game, inner_target, &graph, chaos_params(1));
    Deserializer d(bytes);
    EXPECT_THROW(target.load_state(d), SerialError) << count;
  }
}

// ---------------------------------------------------------------------------
// Graceful shutdown: drain the epoch, flush a final generation, resume
// ---------------------------------------------------------------------------

class ServiceShutdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("avcp_service_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    service::reset_shutdown_flag();
  }

  fs::path dir_;
};

TEST_F(ServiceShutdownTest, SigtermDrainsFlushesAndResumesBitIdentically) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  const auto faults = chaos_faults();
  const core::GameState initial = seeded_state(game, 67);
  const std::vector<double> x0(kRegions, 0.5);
  constexpr std::size_t kTotal = 30;

  core::FixedRatioController inner(0.7);
  ServiceEngine svc(game, inner, &graph, chaos_params(1), &faults);

  const checkpoint::CheckpointStore store(dir_, /*keep=*/2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 5;
  checkpoint::RecoveryHooks hooks;
  hooks.reset = [&] { svc.init(initial, x0); };
  hooks.restore = [&](const checkpoint::CheckpointReader& reader) {
    Deserializer d = reader.section(checkpoint::kSectionService);
    svc.load_state(d);
  };
  hooks.step = [&](std::size_t round) {
    svc.run_epoch();
    if (round == 11) {
      // A real signal, through the installed handler — not just the flag.
      service::install_shutdown_handlers();
      std::raise(SIGTERM);
    }
  };
  hooks.save = [&](checkpoint::CheckpointWriter& writer) {
    svc.save_state(writer.section(checkpoint::kSectionService));
  };
  hooks.stop = [] { return service::shutdown_requested(); };

  service::reset_shutdown_flag();
  const auto first = checkpoint::run_with_recovery(store, policy, kTotal, hooks);
  EXPECT_TRUE(first.stopped_early);
  EXPECT_FALSE(first.resumed);
  EXPECT_EQ(first.completed_rounds, 12u);
  EXPECT_EQ(svc.epoch(), 12u);
  // The drain flushed a generation for the interrupted round.
  ASSERT_FALSE(store.generations().empty());
  EXPECT_EQ(checkpoint::CheckpointReader::open(store.generations().front())
                .round(),
            12u);

  service::reset_shutdown_flag();
  const auto second =
      checkpoint::run_with_recovery(store, policy, kTotal, hooks);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.start_round, 12u);
  EXPECT_FALSE(second.stopped_early);
  EXPECT_EQ(second.completed_rounds, kTotal);

  // The interrupted-and-resumed service is byte-equal to one that ran
  // straight through — the whole point of the drain-and-flush path.
  core::FixedRatioController inner_ref(0.7);
  ServiceEngine ref(game, inner_ref, &graph, chaos_params(1), &faults);
  ref.init(initial, x0);
  for (std::size_t t = 0; t < kTotal; ++t) ref.run_epoch();
  Serializer sa;
  svc.save_state(sa);
  Serializer sb;
  ref.save_state(sb);
  EXPECT_TRUE(sa.bytes() == sb.bytes());
}

}  // namespace
}  // namespace avcp
