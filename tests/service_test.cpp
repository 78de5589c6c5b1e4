// The service layer's contracts: zero-churn bit-identity with the batch
// engines (the epoch loop IS the round loop), thread-count invariance under
// full chaos (churn + faults + attackers + load-coupled re-clustering),
// graceful degradation under region outages, reputation state that follows
// vehicles across regions, and mid-stream checkpoint/resume equivalence —
// including the SIGTERM drain-and-flush path through run_with_recovery.
#include "service/service_engine.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
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
#include "sim/agent_sim.h"
#include "test_support.h"

namespace avcp {
namespace {

namespace fs = std::filesystem;
using core::testing::make_chain_game;
using core::testing::random_simplex;
using service::ServiceEngine;
using service::ServiceParams;
using service::VehicleRecord;

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

/// Empirical per-region decision distribution straight off the fleet
/// records (regions the fleet vacated keep an all-zero row here).
std::vector<std::vector<double>> empirical_from_fleet(
    const core::MultiRegionGame& game, const ServiceEngine& svc) {
  std::vector<std::vector<double>> p(
      game.num_regions(), std::vector<double>(game.num_decisions(), 0.0));
  std::vector<std::size_t> count(game.num_regions(), 0);
  for (const VehicleRecord& rec : svc.fleet()) {
    p[rec.region][rec.decision] += 1.0;
    ++count[rec.region];
  }
  for (std::size_t r = 0; r < p.size(); ++r) {
    if (count[r] == 0) continue;
    for (double& v : p[r]) v /= static_cast<double>(count[r]);
  }
  return p;
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

// Streaming cold start: any ingest batch size must build the same fleet
// (placement comes from per-source-id hash streams) and therefore the same
// trajectory, churn included.
TEST(ServiceEngine, InitFromSourceIsBatchSizeInvariant) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);
  ServiceParams params;
  params.seed = 41;
  params.churn.join_rate = 0.05;
  params.churn.leave_rate = 0.05;
  params.churn.migrate_rate = 0.1;

  core::FixedRatioController inner_a(0.5);
  core::FixedRatioController inner_b(0.5);
  ServiceEngine a(game, inner_a, &graph, params);
  ServiceEngine b(game, inner_b, &graph, params);
  core::SyntheticFleetSource source_a(600, game.num_decisions(), 17);
  core::SyntheticFleetSource source_b(600, game.num_decisions(), 17);
  const core::GameState initial = seeded_state(game, 11);
  a.init_from_source(initial, std::vector<double>(kRegions, 0.5), source_a,
                     /*ingest_batch=*/600);
  b.init_from_source(initial, std::vector<double>(kRegions, 0.5), source_b,
                     /*ingest_batch=*/7);
  EXPECT_EQ(a.fleet().size(), 600u);
  expect_engines_equal(a, b);
  for (int e = 0; e < 6; ++e) {
    a.run_epoch();
    b.run_epoch();
  }
  expect_engines_equal(a, b);
}

// ---------------------------------------------------------------------------
// Zero-churn bit-identity with the batch engines
// ---------------------------------------------------------------------------

// With churn off, congestion_alpha == 0, and no attackers, one service
// epoch is exactly one AgentBasedSim round driven by the same wrapped
// controller: same streams, same draw order, same outage holds — the
// trajectories must agree bit for bit, not approximately.
TEST(ServiceEngine, ZeroChurnFleetMatchesAgentSim) {
  const auto game = make_chain_game(kRegions);
  const auto graph = roadnet::make_grid(6, 6);

  faults::FaultParams fp;
  fp.report_loss_rate = 0.15;
  fp.outage_rate = 0.05;
  fp.seed = 7;
  const faults::FaultModel faults(fp);

  faults::DegradedOptions dopt;
  dopt.staleness_budget = 2;
  dopt.max_step = 0.05;

  const core::GameState initial = seeded_state(game, 11);
  const std::vector<double> x0(kRegions, 0.5);

  sim::AgentSimParams ap;
  ap.vehicles_per_region = 12;
  ap.revision_rate = 0.9;
  ap.imitation_scale = 0.7;
  ap.seed = 123;
  ap.num_threads = 2;
  sim::AgentBasedSim sim(game, ap, &faults);
  sim.init_from(initial);
  core::FixedRatioController inner_ref(0.7);
  faults::DegradedController wrapped(inner_ref, faults, dopt);
  std::vector<double> x_ref = x0;

  ServiceParams sp;
  sp.vehicles_per_region = 12;
  sp.revision_rate = 0.9;
  sp.imitation_scale = 0.7;
  sp.seed = 123;
  sp.num_threads = 3;  // different thread count on purpose
  sp.degraded = dopt;
  core::FixedRatioController inner_svc(0.7);
  ServiceEngine svc(game, inner_svc, &graph, sp, &faults);
  svc.init(initial, x0);

  for (std::size_t t = 0; t < 40; ++t) {
    x_ref = wrapped.next_x(sim.reported_state(), x_ref);
    sim.step(x_ref);
    svc.run_epoch();
    ASSERT_EQ(x_ref, svc.x()) << "round " << t;
    ASSERT_EQ(sim.empirical_state().p, empirical_from_fleet(game, svc))
        << "round " << t;
  }
  EXPECT_EQ(svc.epoch(), 40u);
  EXPECT_EQ(svc.counters().epochs, 40u);
  EXPECT_EQ(svc.counters().joins + svc.counters().leaves +
                svc.counters().migrations,
            0u);
  EXPECT_EQ(svc.counters().reclusters, 0u);  // alpha == 0: frozen clustering
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
