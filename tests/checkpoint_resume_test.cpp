// The resume-equivalence contract: for every stateful engine, restoring a
// snapshot taken after k rounds and running N more is bit-identical to
// running k+N rounds straight through — across seeds, thread counts, and
// both data-plane kernels. Plus the engines' rejection of snapshots from a
// differently-configured run (typed SerialError, never silent adoption).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/serial.h"
#include "core/fds.h"
#include "faults/degraded_controller.h"
#include "faults/fault_model.h"
#include "roadnet/builders.h"
#include "service/service_engine.h"
#include "sim/trace_replay.h"
#include "system/system.h"
#include "test_support.h"

namespace avcp {
namespace {

using core::testing::make_chain_game;

constexpr std::size_t kWarmRounds = 4;   // rounds before the snapshot
constexpr std::size_t kResumeRounds = 4; // rounds after it

// ---------------------------------------------------------------------------
// CooperativePerceptionSystem
// ---------------------------------------------------------------------------

system::SystemParams system_params(std::uint64_t seed, std::size_t threads,
                                   perception::DataPlaneMode mode) {
  system::SystemParams params;
  params.vehicles_per_region = 24;
  params.cells_per_region = 2;
  params.seed = seed;
  params.num_threads = threads;
  params.data_plane_mode = mode;
  return params;
}

/// Everything observable that the next round's evolution depends on.
struct SystemObs {
  std::vector<std::vector<double>> p;
  std::vector<double> x;
  faults::FaultCounters counters;
  std::size_t round = 0;
};

SystemObs observe(const system::CooperativePerceptionSystem& plant) {
  return SystemObs{plant.empirical_state().p, plant.current_x(),
                   plant.fault_counters(), plant.round()};
}

void expect_equal(const SystemObs& a, const SystemObs& b) {
  EXPECT_EQ(a.p, b.p);          // exact: bit-identical, not approximately
  EXPECT_EQ(a.x, b.x);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.round, b.round);
}

TEST(SystemResume, BitIdenticalAcrossSeedsThreadsAndKernels) {
  const auto game = make_chain_game(3, 3.0, 4.0);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.6, 1.0});
  }
  faults::FaultParams fparams;
  fparams.upload_loss_rate = 0.1;
  fparams.seed = 5;
  const faults::FaultModel faults(fparams);

  for (const std::uint64_t seed : {11ull, 77ull}) {
    for (const std::size_t threads : {1ul, 2ul, 8ul}) {
      for (const auto mode : {perception::DataPlaneMode::kPairwiseExact,
                              perception::DataPlaneMode::kClassAggregated}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " threads=" << threads << " mode="
                     << static_cast<int>(mode));
        const auto params = system_params(seed, threads, mode);
        core::FdsController controller(game, fields);

        system::CooperativePerceptionSystem straight(game, params, &faults);
        straight.init_from(game.uniform_state());
        for (std::size_t t = 0; t < kWarmRounds; ++t) {
          straight.run_round(controller);
        }
        Serializer snapshot;
        straight.save_state(snapshot);
        for (std::size_t t = 0; t < kResumeRounds; ++t) {
          straight.run_round(controller);
        }

        // "New process": fresh plant, same wiring; restore instead of init.
        core::FdsController controller2(game, fields);
        system::CooperativePerceptionSystem resumed(game, params, &faults);
        Deserializer d(snapshot.bytes());
        resumed.load_state(d);
        EXPECT_TRUE(d.exhausted());
        EXPECT_EQ(resumed.round(), kWarmRounds);
        for (std::size_t t = 0; t < kResumeRounds; ++t) {
          resumed.run_round(controller2);
        }
        expect_equal(observe(straight), observe(resumed));
      }
    }
  }
}

TEST(SystemResume, AdaptiveAdversaryAndTrustStateRideAlong) {
  // Resume mid-attack: the snapshot captures the report pipeline's
  // reputation + trust posteriors AND every adaptive attacker's state
  // machine, so a restored plant re-enacts the same defect bursts and
  // reaches the same exclusion set as the straight run.
  const auto game = make_chain_game(3, 1.5, 1.5);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.6, 1.0});
  }
  auto params = system_params(31, 2, perception::DataPlaneMode::kPairwiseExact);
  byzantine::AdaptiveAdversaryParams aparams;
  aparams.attacker_fraction = 0.3;
  aparams.policy = byzantine::AdaptivePolicy::kBuildThenDefect;
  aparams.build_rounds = 2;
  aparams.defect_rounds = 3;
  aparams.seed = 17;
  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;
  popts.trust.enabled = true;

  const std::size_t warm = 8;  // inside the fleet's staggered defect bursts
  byzantine::AdaptiveAdversary adv_a(3, params.vehicles_per_region, aparams);
  byzantine::ReportPipeline pipe_a(3, 8, params.vehicles_per_region, popts);
  core::FdsController ctrl_a(game, fields);
  system::CooperativePerceptionSystem straight(game, params, nullptr, &pipe_a,
                                               &adv_a);
  straight.init_from(game.uniform_state());
  for (std::size_t t = 0; t < warm; ++t) straight.run_round(ctrl_a);
  Serializer snapshot;
  straight.save_state(snapshot);
  system::RoundReport last_a;
  for (std::size_t t = 0; t < kResumeRounds; ++t) {
    last_a = straight.run_round(ctrl_a);
  }

  byzantine::AdaptiveAdversary adv_b(3, params.vehicles_per_region, aparams);
  byzantine::ReportPipeline pipe_b(3, 8, params.vehicles_per_region, popts);
  core::FdsController ctrl_b(game, fields);
  system::CooperativePerceptionSystem resumed(game, params, nullptr, &pipe_b,
                                              &adv_b);
  Deserializer d(snapshot.bytes());
  resumed.load_state(d);
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(resumed.round(), warm);
  EXPECT_EQ(adv_b.rounds(), warm);
  system::RoundReport last_b;
  for (std::size_t t = 0; t < kResumeRounds; ++t) {
    last_b = resumed.run_round(ctrl_b);
  }

  expect_equal(observe(straight), observe(resumed));
  EXPECT_EQ(last_a.x, last_b.x);
  EXPECT_EQ(last_a.byzantine.observed.p, last_b.byzantine.observed.p);
  EXPECT_EQ(last_a.byzantine.total_quarantined,
            last_b.byzantine.total_quarantined);
  EXPECT_EQ(last_a.byzantine.total_distrusted,
            last_b.byzantine.total_distrusted);
  EXPECT_EQ(last_a.byzantine.adaptive_dormant,
            last_b.byzantine.adaptive_dormant);
  for (core::RegionId i = 0; i < 3; ++i) {
    for (std::size_t v = 0; v < params.vehicles_per_region; ++v) {
      EXPECT_EQ(pipe_a.excluded(i, v), pipe_b.excluded(i, v));
      EXPECT_EQ(pipe_a.reputation().score(i, v),
                pipe_b.reputation().score(i, v));
      EXPECT_EQ(pipe_a.trust().trust(i, v), pipe_b.trust().trust(i, v));
    }
  }
}

TEST(SystemResume, AdaptiveWiringMismatchRejected) {
  // A snapshot taken with the closed-loop adversary attached must not be
  // silently adopted by a plant wired without it (and vice versa).
  const auto game = make_chain_game(3, 3.0, 4.0);
  const auto params =
      system_params(11, 1, perception::DataPlaneMode::kPairwiseExact);
  byzantine::AdaptiveAdversaryParams aparams;
  aparams.attacker_fraction = 0.3;
  aparams.seed = 17;
  byzantine::AdaptiveAdversary adv(3, params.vehicles_per_region, aparams);
  byzantine::PipelineOptions popts;
  byzantine::ReportPipeline pipe(3, 8, params.vehicles_per_region, popts);
  system::CooperativePerceptionSystem with(game, params, nullptr, &pipe, &adv);
  with.init_from(game.uniform_state());
  Serializer snapshot;
  with.save_state(snapshot);

  system::CooperativePerceptionSystem without(game, params, nullptr);
  Deserializer d(snapshot.bytes());
  EXPECT_THROW(without.load_state(d), SerialError);
}

TEST(SystemResume, OpenLoopAdversaryIsFingerprinted) {
  // The open-loop adversary is part of the wiring too: its snapshot must be
  // rejected by a plant without an adversary (which would resume with
  // every attacker dropped) and by one running the closed-loop adversary
  // instead, while a matching plant resumes it round for round.
  const auto game = make_chain_game(3, 3.0, 4.0);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.6, 1.0});
  }
  const auto params =
      system_params(11, 1, perception::DataPlaneMode::kPairwiseExact);
  const std::size_t fleet = params.vehicles_per_region;
  byzantine::AdversaryParams aparams;
  aparams.attacker_fraction = 0.25;
  aparams.strategy = byzantine::AttackStrategy::kInflateSharing;
  aparams.seed = 13;
  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;

  byzantine::AdversaryModel adv_a(aparams);
  byzantine::ReportPipeline pipe_a(3, 8, fleet, popts);
  core::FdsController ctrl_a(game, fields);
  system::CooperativePerceptionSystem straight(game, params, nullptr, &pipe_a,
                                               &adv_a);
  straight.init_from(game.uniform_state());
  for (std::size_t t = 0; t < kWarmRounds; ++t) straight.run_round(ctrl_a);
  Serializer snapshot;
  straight.save_state(snapshot);
  std::vector<system::RoundReport> tail;
  for (std::size_t t = 0; t < kResumeRounds; ++t) {
    tail.push_back(straight.run_round(ctrl_a));
  }

  {
    byzantine::ReportPipeline pipe(3, 8, fleet, popts);
    system::CooperativePerceptionSystem without(game, params, nullptr, &pipe);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(without.load_state(d), SerialError);
  }
  {
    byzantine::AdaptiveAdversaryParams closed;
    closed.attacker_fraction = 0.25;
    closed.seed = 13;
    byzantine::AdaptiveAdversary adaptive(3, fleet, closed);
    byzantine::ReportPipeline pipe(3, 8, fleet, popts);
    system::CooperativePerceptionSystem other(game, params, nullptr, &pipe,
                                              &adaptive);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(other.load_state(d), SerialError);
  }

  byzantine::AdversaryModel adv_b(aparams);
  byzantine::ReportPipeline pipe_b(3, 8, fleet, popts);
  core::FdsController ctrl_b(game, fields);
  system::CooperativePerceptionSystem resumed(game, params, nullptr, &pipe_b,
                                              &adv_b);
  Deserializer d(snapshot.bytes());
  resumed.load_state(d);
  EXPECT_TRUE(d.exhausted());
  for (std::size_t t = 0; t < kResumeRounds; ++t) {
    const system::RoundReport b = resumed.run_round(ctrl_b);
    EXPECT_EQ(tail[t].x, b.x) << "round " << t;
    EXPECT_EQ(tail[t].state.p, b.state.p) << "round " << t;
    EXPECT_EQ(tail[t].byzantine.observed.p, b.byzantine.observed.p);
    EXPECT_EQ(tail[t].byzantine.total_quarantined,
              b.byzantine.total_quarantined);
  }
  expect_equal(observe(straight), observe(resumed));
}

TEST(SystemResume, DegradedControllerStateRidesAlong) {
  // The stateful cloud wrapper (held reports, ages, counters) must restore
  // with the plant: a resumed pair emits the same ratios as the straight
  // run even while regions are blind.
  const auto game = make_chain_game(3, 3.0, 4.0);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.6, 1.0});
  }
  faults::FaultParams fparams;
  fparams.report_loss_rate = 0.4;
  fparams.upload_loss_rate = 0.1;
  fparams.seed = 9;
  const faults::FaultModel faults(fparams);
  const auto params =
      system_params(123, 2, perception::DataPlaneMode::kPairwiseExact);

  core::FdsController inner_a(game, fields);
  faults::DegradedController ctl_a(inner_a, faults);
  system::CooperativePerceptionSystem straight(game, params, &faults);
  straight.init_from(game.uniform_state());
  for (std::size_t t = 0; t < kWarmRounds; ++t) straight.run_round(ctl_a);
  Serializer snapshot;
  straight.save_state(snapshot);
  ctl_a.save_state(snapshot);
  for (std::size_t t = 0; t < kResumeRounds; ++t) straight.run_round(ctl_a);

  core::FdsController inner_b(game, fields);
  faults::DegradedController ctl_b(inner_b, faults);
  system::CooperativePerceptionSystem resumed(game, params, &faults);
  Deserializer d(snapshot.bytes());
  resumed.load_state(d);
  ctl_b.load_state(d);
  EXPECT_TRUE(d.exhausted());
  for (std::size_t t = 0; t < kResumeRounds; ++t) resumed.run_round(ctl_b);

  expect_equal(observe(straight), observe(resumed));
  EXPECT_EQ(ctl_a.round(), ctl_b.round());
  EXPECT_TRUE(ctl_a.counters() == ctl_b.counters());
}

/// A plant with its own collaborators, built and run in place (the system
/// keeps pointers to them): plain, or chaos-wired with a trust-enabled
/// report pipeline, adaptive attackers and a lossy inter-region network.
struct WiredPlant {
  static constexpr std::size_t kFleet = 20;

  WiredPlant(const core::MultiRegionGame& game, bool chaos)
      : adversary(game.num_regions(), kFleet, attackers()),
        pipeline(game.num_regions(), game.num_decisions(), kFleet,
                 defense()) {
    system::SystemParams params;
    params.vehicles_per_region = kFleet;
    params.seed = 11;
    if (chaos) {
      params.net.drop_rate = 0.3;
      params.net.delay_rate = 0.25;
      params.net.max_delay_rounds = 2;
      params.net.max_staleness = 3;
      params.net.seed = 29;
      sys.emplace(game, params, nullptr, &pipeline, &adversary);
    } else {
      sys.emplace(game, params);
    }
    sys->init_from(game.uniform_state());
  }
  WiredPlant(const WiredPlant&) = delete;
  WiredPlant& operator=(const WiredPlant&) = delete;

  static byzantine::AdaptiveAdversaryParams attackers() {
    byzantine::AdaptiveAdversaryParams params;
    params.attacker_fraction = 0.3;
    params.policy = byzantine::AdaptivePolicy::kBuildThenDefect;
    params.build_rounds = 1;
    params.defect_rounds = 2;
    params.seed = 17;
    return params;
  }
  static byzantine::PipelineOptions defense() {
    byzantine::PipelineOptions options;
    options.aggregator.mode = byzantine::AggregationMode::kMedian;
    options.aggregator.reject_outliers = true;
    options.trust.enabled = true;
    return options;
  }

  std::vector<std::byte> bytes() const {
    Serializer s;
    sys->save_state(s);
    return s.bytes();
  }

  byzantine::AdaptiveAdversary adversary;
  byzantine::ReportPipeline pipeline;
  std::optional<system::CooperativePerceptionSystem> sys;
};

/// A round-5 plant given its own round-2 snapshot cut at each of `cuts`
/// must throw SerialError and stay exactly as it was: its bytes, and the
/// round it runs next, equal an untouched twin's.
void expect_cut_snapshots_rejected(const core::MultiRegionGame& game,
                                   bool chaos,
                                   const std::vector<std::byte>& snapshot,
                                   const std::vector<std::size_t>& cuts) {
  core::FixedRatioController controller(0.6);
  for (const std::size_t keep : cuts) {
    SCOPED_TRACE(::testing::Message() << "kept " << keep << " of "
                                      << snapshot.size() << " bytes");
    WiredPlant target(game, chaos);
    WiredPlant twin(game, chaos);
    for (WiredPlant* plant : {&target, &twin}) {
      for (int t = 0; t < 5; ++t) plant->sys->run_round(controller);
    }
    Deserializer d(std::span<const std::byte>(snapshot).first(keep));
    EXPECT_THROW(target.sys->load_state(d), SerialError);
    EXPECT_EQ(target.sys->round(), 5u);
    EXPECT_TRUE(target.bytes() == twin.bytes());
    const system::RoundReport a = target.sys->run_round(controller);
    const system::RoundReport b = twin.sys->run_round(controller);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.mean_utility, b.mean_utility);
    EXPECT_EQ(a.state.p, b.state.p);
    EXPECT_TRUE(target.bytes() == twin.bytes());
  }
}

std::vector<std::byte> round_two_snapshot(const core::MultiRegionGame& game,
                                          bool chaos, Serializer* adversary) {
  WiredPlant source(game, chaos);
  core::FixedRatioController controller(0.6);
  for (int t = 0; t < 2; ++t) source.sys->run_round(controller);
  if (adversary != nullptr) source.adversary.save_state(*adversary);
  return source.bytes();
}

// The 16-byte cut fails in the last plane's stream, the half cut in the
// decisions.
TEST(SystemResume, RejectedSnapshotLeavesThePlantUntouched) {
  const auto game = make_chain_game(3);
  const std::vector<std::byte> snapshot =
      round_two_snapshot(game, false, nullptr);
  expect_cut_snapshots_rejected(game, false, snapshot,
                                {snapshot.size() - 16, snapshot.size() / 2});
}

// Chaos wiring: the 16-byte cut fails in the scene rings, after the
// pipeline, the adversary and the channel have loaded; two more cuts fail
// inside the adversary's own section and just past it, in the channel.
TEST(SystemResume, RejectedSnapshotLeavesTheChaosPlantUntouched) {
  const auto game = make_chain_game(3);
  Serializer adversary;
  const std::vector<std::byte> snapshot =
      round_two_snapshot(game, true, &adversary);
  const auto at = std::search(snapshot.begin(), snapshot.end(),
                              adversary.bytes().begin(),
                              adversary.bytes().end());
  ASSERT_NE(at, snapshot.end());
  const auto start = static_cast<std::size_t>(at - snapshot.begin());
  expect_cut_snapshots_rejected(
      game, true, snapshot,
      {snapshot.size() - 16, snapshot.size() / 2,
       start + adversary.size() / 2, start + adversary.size() + 8});
}

TEST(SystemResume, MismatchedConfigurationRejected) {
  const auto game = make_chain_game(3, 3.0, 4.0);
  const auto params =
      system_params(11, 1, perception::DataPlaneMode::kPairwiseExact);
  system::CooperativePerceptionSystem plant(game, params, nullptr);
  plant.init_from(game.uniform_state());
  Serializer snapshot;
  plant.save_state(snapshot);

  {
    // Different fleet size.
    auto other = params;
    other.vehicles_per_region = 30;
    system::CooperativePerceptionSystem target(game, other, nullptr);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(target.load_state(d), SerialError);
  }
  {
    // Different data-plane kernel.
    auto other = params;
    other.data_plane_mode = perception::DataPlaneMode::kClassAggregated;
    system::CooperativePerceptionSystem target(game, other, nullptr);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(target.load_state(d), SerialError);
  }
  {
    // Different region count.
    const auto small = make_chain_game(2, 3.0, 4.0);
    system::CooperativePerceptionSystem target(small, params, nullptr);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(target.load_state(d), SerialError);
  }
  {
    // Truncated payload.
    std::vector<std::byte> torn(snapshot.bytes().begin(),
                                snapshot.bytes().end() - 9);
    system::CooperativePerceptionSystem target(game, params, nullptr);
    Deserializer d(torn);
    EXPECT_THROW(target.load_state(d), SerialError);
  }
}

// ---------------------------------------------------------------------------
// TraceDrivenSim
// ---------------------------------------------------------------------------

/// A synthetic 6-round trace: 30 vehicles hopping between 6 segments
/// (two per region), drawn from a seeded Rng so presence is irregular.
std::vector<trace::GpsFix> synthetic_trace(std::size_t vehicles,
                                           std::size_t rounds,
                                           double round_s) {
  Rng rng(404);
  std::vector<trace::GpsFix> fixes;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < vehicles; ++v) {
      if (rng.bernoulli(0.2)) continue;  // dormant this round
      for (int k = 0; k < 3; ++k) {
        trace::GpsFix fix{};
        fix.vehicle = static_cast<trace::VehicleId>(v);
        fix.time_s = (static_cast<double>(r) + 0.2 + 0.2 * k) * round_s;
        fix.segment = static_cast<std::size_t>(rng.uniform_int(0, 5));
        fixes.push_back(fix);
      }
    }
  }
  return fixes;
}

TEST(TraceReplayResume, BitIdenticalAcrossSeeds) {
  const auto game = make_chain_game(3);
  const std::vector<cluster::RegionId> region_of = {0, 0, 1, 1, 2, 2};
  const std::size_t vehicles = 30;
  const double round_s = 100.0;
  const auto fixes = synthetic_trace(vehicles, 12, round_s);
  const std::vector<double> x(game.num_regions(), 0.5);

  for (const std::uint64_t seed : {21ull, 909ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    sim::TraceReplayParams params;
    params.round_s = round_s;
    params.seed = seed;

    sim::TraceDrivenSim straight(game, fixes, region_of, vehicles,
                                 12 * round_s, params);
    straight.init_from(game.uniform_state());
    for (std::size_t t = 0; t < kWarmRounds; ++t) straight.step(x);
    Serializer snapshot;
    straight.save_state(snapshot);
    for (std::size_t t = 0; t < kResumeRounds; ++t) straight.step(x);

    sim::TraceDrivenSim resumed(game, fixes, region_of, vehicles,
                                12 * round_s, params);
    Deserializer d(snapshot.bytes());
    resumed.load_state(d);
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(resumed.current_round(), kWarmRounds);
    for (std::size_t t = 0; t < kResumeRounds; ++t) resumed.step(x);

    EXPECT_EQ(straight.empirical_state().p, resumed.empirical_state().p);
  }
}

TEST(TraceReplayResume, MismatchedConfigurationRejected) {
  const auto game = make_chain_game(3);
  const std::vector<cluster::RegionId> region_of = {0, 0, 1, 1, 2, 2};
  const auto fixes = synthetic_trace(30, 6, 100.0);
  sim::TraceReplayParams params;
  params.round_s = 100.0;
  params.seed = 21;

  sim::TraceDrivenSim source(game, fixes, region_of, 30, 600.0, params);
  source.init_from(game.uniform_state());
  Serializer snapshot;
  source.save_state(snapshot);

  // Different vehicle count.
  sim::TraceDrivenSim target(game, fixes, region_of, 31, 600.0, params);
  Deserializer d(snapshot.bytes());
  EXPECT_THROW(target.load_state(d), SerialError);
}

TEST(TraceReplayResume, MisshapenSnapshotLeavesTheSimUntouched) {
  // A snapshot whose decisions name an id past the lattice, or whose
  // published state has one row for a two-region replay, must be rejected
  // before any of it is applied: the round, the revision stream, the
  // decisions and the state stay as they were, so the next steps match an
  // untouched twin.
  const auto game = make_chain_game(2);
  const std::vector<cluster::RegionId> region_of = {0, 0, 0, 1, 1, 1};
  const auto fixes = synthetic_trace(30, 8, 100.0);
  sim::TraceReplayParams params;
  params.round_s = 100.0;
  params.seed = 21;
  const std::vector<double> x(game.num_regions(), 0.5);

  sim::TraceDrivenSim source(game, fixes, region_of, 30, 800.0, params);
  source.init_from(game.uniform_state());
  for (std::size_t t = 0; t < kWarmRounds; ++t) source.step(x);
  Serializer snapshot;
  source.save_state(snapshot);
  const std::vector<std::byte>& good = snapshot.bytes();

  // The published state closes the snapshot (a u64 row count, then each
  // row as a u64 length and its doubles), right after the decisions.
  const std::size_t state_bytes =
      8 + game.num_regions() * (8 + 8 * game.num_decisions());
  ASSERT_GT(good.size(), state_bytes + 4);
  std::vector<std::byte> one_row(good.begin(), good.end() - state_bytes);
  Serializer row;
  core::GameState single;
  single.p = {game.uniform_state().p[0]};
  single.save_state(row);
  one_row.insert(one_row.end(), row.bytes().begin(), row.bytes().end());
  std::vector<std::byte> bad_decision = good;
  const std::size_t last_decision = good.size() - state_bytes - 4;
  bad_decision[last_decision] = static_cast<std::byte>(game.num_decisions());

  const std::pair<const char*, const std::vector<std::byte>*> cases[] = {
      {"decision past the lattice", &bad_decision}, {"one state row", &one_row}};
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    sim::TraceDrivenSim target(game, fixes, region_of, 30, 800.0, params);
    sim::TraceDrivenSim twin(game, fixes, region_of, 30, 800.0, params);
    target.init_from(game.uniform_state());
    twin.init_from(game.uniform_state());
    for (int t = 0; t < 2; ++t) {
      target.step(x);
      twin.step(x);
    }
    Deserializer d(*bytes);
    ASSERT_THROW(target.load_state(d), SerialError);
    EXPECT_EQ(target.current_round(), 2u);
    EXPECT_EQ(target.empirical_state().p, twin.empirical_state().p);
    for (int t = 0; t < 3; ++t) {
      target.step(x);
      twin.step(x);
      EXPECT_EQ(target.empirical_state().p, twin.empirical_state().p);
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint images pinned across commits
// ---------------------------------------------------------------------------

/// The size and byte-wise FNV-1a hash of a framed checkpoint image.
struct ImagePin {
  std::size_t bytes = 0;
  std::uint64_t hash = 0;
  bool operator==(const ImagePin&) const = default;
};

ImagePin pin_of(const checkpoint::CheckpointWriter& writer) {
  const std::vector<std::byte> image = writer.encode();
  std::uint64_t h = core::testing::kFnv1aBasis;
  for (const std::byte b : image) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return ImagePin{image.size(), h};
}

std::ostream& operator<<(std::ostream& os, const ImagePin& pin) {
  return os << "{" << pin.bytes << ", 0x" << std::hex << pin.hash << std::dec
            << "}";
}

/// A plant's file a few rounds in: its own section and its FDS controller's.
ImagePin plant_image(bool chaos) {
  const auto game = make_chain_game(3);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.6, 1.0});
  }
  core::FdsController controller(game, fields);
  WiredPlant plant(game, chaos);
  system::RoundReport last;
  for (int t = 0; t < 4; ++t) last = plant.sys->run_round(controller);
  if (chaos) {
    // A message delayed in the last round is still in flight: the file
    // carries the channel's queue and the payload rings' resident slots.
    EXPECT_TRUE(last.net.active);
    EXPECT_GT(last.net.delayed, 0u);
  }
  checkpoint::CheckpointWriter writer(plant.sys->round());
  plant.sys->save_state(writer.section(checkpoint::kSectionSystem));
  controller.save_state(writer.section(checkpoint::kSectionController));
  return pin_of(writer);
}

/// A churning, attacked, lossy-backhaul service a few epochs in.
ImagePin service_image() {
  const auto game = make_chain_game(4);
  const auto graph = roadnet::make_grid(6, 6);
  faults::FaultParams fp;
  fp.report_loss_rate = 0.10;
  fp.outage_rate = 0.03;
  fp.seed = 21;
  const faults::FaultModel faults(fp);
  service::ServiceParams sp;
  sp.vehicles_per_region = 12;
  sp.revision_rate = 0.9;
  sp.imitation_scale = 0.7;
  sp.seed = 42;
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
  sp.net.drop_rate = 0.3;
  sp.net.delay_rate = 0.25;
  sp.net.seed = 17;
  core::FixedRatioController inner(0.7);
  service::ServiceEngine svc(game, inner, &graph, sp, &faults);
  svc.init(game.uniform_state(), std::vector<double>(game.num_regions(), 0.5));
  for (int t = 0; t < 6; ++t) svc.run_epoch();
  EXPECT_GT(svc.counters().joins, 0u);
  EXPECT_GT(svc.counters().leaves + svc.counters().migrations, 0u);
  checkpoint::CheckpointWriter writer(svc.epoch());
  svc.save_state(writer.section(checkpoint::kSectionService));
  return pin_of(writer);
}

// The resume tests compare two runs of one build; these pins hold the
// files themselves, so an encoder or CRC change that moves one byte of a
// checkpoint fails here. A change that moves a byte on purpose (and bumps
// kSchemaVersion) re-pins it and says why.
TEST(CheckpointImage, BytesArePinnedAcrossCommits) {
  EXPECT_EQ(plant_image(false), (ImagePin{1212, 0xde3c80fc4877e676ULL}));
  EXPECT_EQ(plant_image(true), (ImagePin{39954, 0xfcd2c801f779b006ULL}));
  EXPECT_EQ(service_image(), (ImagePin{6792, 0xaeee3a179cbfc91fULL}));
}

}  // namespace
}  // namespace avcp
