// Plant-level Byzantine tests: the bit-identity contract of the inert
// configuration, the vulnerable trusting baseline, and the robust pipeline
// steering + detection under attack.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <vector>

#include "byzantine/adaptive_adversary.h"
#include "byzantine/adversary_model.h"
#include "byzantine/report_pipeline.h"
#include "core/fds.h"
#include "sim/metrics.h"
#include "system/system.h"
#include "test_support.h"

namespace avcp::system {
namespace {

using core::testing::make_chain_game;
using core::testing::make_single_region_game;

SystemParams small_params() {
  SystemParams params;
  params.vehicles_per_region = 60;
  params.seed = 7;
  return params;
}

core::DesiredFields share_band_fields(std::size_t regions, double lo,
                                      double hi) {
  core::DesiredFields fields(regions, 8);
  for (core::RegionId i = 0; i < regions; ++i) {
    fields.set_target(i, 0, Interval{lo, hi});
  }
  return fields;
}

void expect_reports_bit_identical(const RoundReport& a, const RoundReport& b,
                                  std::size_t round) {
  EXPECT_EQ(a.x, b.x) << "round " << round;
  EXPECT_EQ(a.mean_utility, b.mean_utility) << "round " << round;
  EXPECT_EQ(a.mean_privacy, b.mean_privacy) << "round " << round;
  EXPECT_EQ(a.exposed_privacy, b.exposed_privacy) << "round " << round;
  EXPECT_EQ(a.state.p, b.state.p) << "round " << round;
  EXPECT_EQ(a.faults.uploads_lost, b.faults.uploads_lost);
  EXPECT_EQ(a.faults.deliveries_lost, b.faults.deliveries_lost);
}

TEST(SystemByzantine, InertAdversaryAndPassthroughPipelineAreBitIdentical) {
  // The contract from system.h: an inert adversary plus a passthrough,
  // non-enforcing pipeline must leave the full round series bit-identical
  // to the clean two-argument construction.
  const auto game = make_chain_game(3);
  const auto params = small_params();

  CooperativePerceptionSystem clean(game, params);
  clean.init_from(game.uniform_state());

  byzantine::AdversaryModel inert{byzantine::AdversaryParams{}};
  ASSERT_FALSE(inert.active());
  byzantine::PipelineOptions popts;  // mean mode, no rejection
  popts.enforce_quarantine = false;
  popts.telemetry_weight = 0.0;
  popts.behavior_weight = 0.0;
  ASSERT_TRUE(popts.aggregator.passthrough());
  byzantine::ReportPipeline pipeline(3, 8, params.vehicles_per_region, popts);
  CooperativePerceptionSystem routed(game, params, nullptr, &pipeline, &inert);
  routed.init_from(game.uniform_state());

  const auto fields = share_band_fields(3, 0.7, 1.0);
  core::FdsOptions fopts;
  fopts.max_step = 0.15;
  core::FdsController clean_ctrl(game, fields, fopts);
  core::FdsController routed_ctrl(game, fields, fopts);

  for (std::size_t round = 0; round < 30; ++round) {
    const auto a = clean.run_round(clean_ctrl);
    const auto b = routed.run_round(routed_ctrl);
    expect_reports_bit_identical(a, b, round);
    EXPECT_FALSE(a.byzantine.active);
    EXPECT_TRUE(b.byzantine.active);
    EXPECT_EQ(b.byzantine.total_quarantined, 0u);
    // The routed observation is the exact pre-revision empirical state.
    ASSERT_EQ(b.byzantine.observed.p.size(), 3u);
    for (core::RegionId i = 0; i < 3; ++i) {
      EXPECT_EQ(b.byzantine.reports_used[i], params.vehicles_per_region);
      EXPECT_EQ(b.byzantine.outliers_rejected[i], 0u);
    }
  }
}

TEST(SystemByzantine, ZeroAttackersThroughRobustPipelineStayBitIdentical) {
  // The second inert configuration of the acceptance contract: the fully
  // armed defence (median telemetry, outlier rejection, enforcement on)
  // over an attacker-free fleet must not perturb the plant — honest
  // reports are exact, so nothing is rejected and nobody is quarantined.
  const auto game = make_chain_game(3);
  const auto params = small_params();

  CooperativePerceptionSystem clean(game, params);
  clean.init_from(game.uniform_state());

  byzantine::AdversaryParams aparams;  // attacker_fraction = 0
  byzantine::AdversaryModel none(aparams);
  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;
  byzantine::ReportPipeline pipeline(3, 8, params.vehicles_per_region, popts);
  CooperativePerceptionSystem guarded(game, params, nullptr, &pipeline, &none);
  guarded.init_from(game.uniform_state());

  const auto fields = share_band_fields(3, 0.7, 1.0);
  core::FdsOptions fopts;
  fopts.max_step = 0.15;
  core::FdsController clean_ctrl(game, fields, fopts);
  core::FdsController guarded_ctrl(game, fields, fopts);

  for (std::size_t round = 0; round < 60; ++round) {
    const auto a = clean.run_round(clean_ctrl);
    const auto b = guarded.run_round(guarded_ctrl);
    expect_reports_bit_identical(a, b, round);
    EXPECT_EQ(b.byzantine.total_quarantined, 0u) << "round " << round;
  }
}

TEST(SystemByzantine, TrustingCloudSeesTheInflatedClaims) {
  // Vulnerable baseline: with no pipeline the cloud folds the claims with
  // a plain mean, so 30% inflate-sharing free-riders lift the observed
  // share-everything proportion well above the honest fleet's truth.
  const auto game = make_single_region_game(/*beta=*/2.0);
  byzantine::AdversaryParams aparams;
  aparams.attacker_fraction = 0.3;
  aparams.strategy = byzantine::AttackStrategy::kInflateSharing;
  aparams.seed = 13;
  byzantine::AdversaryModel adversary(aparams);

  CooperativePerceptionSystem sys(game, small_params(), nullptr, nullptr,
                                  &adversary);
  sys.init_from(game.uniform_state());
  core::FixedRatioController controller(0.5);
  const auto report = sys.run_round(controller);

  const auto honest = sys.honest_state();
  EXPECT_GT(report.byzantine.observed.p[0][0], honest.p[0][0] + 0.1);
}

TEST(SystemByzantine, RobustPipelineQuarantinesFreeRidersAndHoldsSteering) {
  // The headline acceptance scenario: 20% inflate-sharing free-riders
  // against the full closed loop — FDS holding the share-everything
  // proportion above a density-weighted floor, the floors themselves
  // recomputed every round from the pipeline's aggregated telemetry
  // (set_desired), exactly like the production control plane. At this beta
  // the imitation plant coordinates, so the clean twin settles at the
  // fixed point (p(P1) = 1, ratios held); the robust pipeline must
  // (a) quarantine the persistent attackers with >= 0.9 precision and
  // recall via the behavioural zero-upload audit (their claims are
  // plausible and their telemetry is honest, so only behaviour can betray
  // them), and (b) keep the applied ratio series within 0.05 of the clean
  // twin's in the tail — the attack must leave no imprint on the loop.
  const auto game = make_chain_game(3, /*beta_lo=*/4.0, /*beta_hi=*/4.0);
  auto params = small_params();
  params.vehicles_per_region = 100;
  params.seed = 11;

  // The clean twin routes through its own fully armed pipeline (an
  // attacker-free fleet, so bit-identical to the bare plant per the test
  // above) because the telemetry feedback loop needs aggregated densities.
  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;
  byzantine::ReportPipeline clean_pipe(3, 8, params.vehicles_per_region,
                                       popts);
  CooperativePerceptionSystem clean(game, params, nullptr, &clean_pipe);
  clean.init_from(game.uniform_state());

  byzantine::AdversaryParams aparams;
  aparams.attacker_fraction = 0.2;
  aparams.strategy = byzantine::AttackStrategy::kInflateSharing;
  aparams.seed = 13;
  byzantine::AdversaryModel adversary(aparams);
  byzantine::ReportPipeline pipeline(3, 8, params.vehicles_per_region, popts);
  CooperativePerceptionSystem attacked(game, params, nullptr, &pipeline,
                                       &adversary);
  attacked.init_from(game.uniform_state());

  core::FdsOptions fopts;
  fopts.max_step = 0.15;
  const auto initial = share_band_fields(3, 0.7, 1.0);
  core::FdsController clean_ctrl(game, initial, fopts);
  core::FdsController attacked_ctrl(game, initial, fopts);

  const std::size_t rounds = 120;
  double tail_error = 0.0;
  std::size_t tail = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto a = clean.run_round(clean_ctrl);
    const auto b = attacked.run_round(attacked_ctrl);
    // Close the telemetry loop: next round's floors from this round's
    // aggregated densities (honest density reports are exact, so the
    // robust aggregate keeps both twins' fields at the same flat floor).
    clean_ctrl.set_desired(byzantine::density_weighted_fields(
        3, 8, a.byzantine.density, /*base_floor=*/0.7, /*slope=*/0.6));
    attacked_ctrl.set_desired(byzantine::density_weighted_fields(
        3, 8, b.byzantine.density, /*base_floor=*/0.7, /*slope=*/0.6));
    if (round + 30 >= rounds) {
      for (core::RegionId i = 0; i < 3; ++i) {
        tail_error += std::abs(a.x[i] - b.x[i]) / 3.0;
      }
      ++tail;
    }
  }
  EXPECT_LT(tail_error / static_cast<double>(tail), 0.05);

  std::vector<std::uint8_t> truth;
  std::vector<std::uint8_t> flagged;
  for (core::RegionId i = 0; i < 3; ++i) {
    for (std::size_t v = 0; v < params.vehicles_per_region; ++v) {
      truth.push_back(adversary.is_attacker(i, v) ? 1 : 0);
      flagged.push_back(pipeline.reputation().quarantined(i, v) ? 1 : 0);
    }
  }
  const auto stats = sim::detection_stats(truth, flagged);
  EXPECT_GE(stats.precision, 0.9) << stats.false_positives << " FPs";
  EXPECT_GE(stats.recall, 0.9) << stats.false_negatives << " FNs";

  // Both fleets actually sit at the coordinated fixed point the controller
  // was holding them to, free-riders notwithstanding.
  EXPECT_GT(clean.empirical_state().p[0][0], 0.8);
  EXPECT_GT(attacked.honest_state().p[0][0], 0.8);
}

TEST(SystemByzantine, DensityPoisonersAreRejectedAndQuarantined) {
  const auto game = make_chain_game(3);
  auto params = small_params();
  params.seed = 23;

  byzantine::AdversaryParams aparams;
  aparams.attacker_fraction = 0.2;
  aparams.strategy = byzantine::AttackStrategy::kDensityPoison;
  aparams.seed = 29;
  byzantine::AdversaryModel adversary(aparams);
  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;
  byzantine::ReportPipeline pipeline(3, 8, params.vehicles_per_region, popts);
  CooperativePerceptionSystem sys(game, params, nullptr, &pipeline, &adversary);
  sys.init_from(game.uniform_state());

  core::FixedRatioController controller(0.5);
  const double fleet = static_cast<double>(params.vehicles_per_region);
  bool saw_rejection = false;
  for (std::size_t round = 0; round < 30; ++round) {
    const auto report = sys.run_round(controller);
    for (core::RegionId i = 0; i < 3; ++i) {
      // The aggregated density never budges from the honest headcount:
      // liars are either MAD-rejected this round or already quarantined.
      EXPECT_DOUBLE_EQ(report.byzantine.density[i], fleet) << "round " << round;
      saw_rejection |= report.byzantine.outliers_rejected[i] > 0;
    }
  }
  EXPECT_TRUE(saw_rejection);

  std::vector<std::uint8_t> truth;
  std::vector<std::uint8_t> flagged;
  for (core::RegionId i = 0; i < 3; ++i) {
    for (std::size_t v = 0; v < params.vehicles_per_region; ++v) {
      truth.push_back(adversary.is_attacker(i, v) ? 1 : 0);
      flagged.push_back(pipeline.reputation().quarantined(i, v) ? 1 : 0);
    }
  }
  const auto stats = sim::detection_stats(truth, flagged);
  EXPECT_GE(stats.precision, 0.9);
  EXPECT_GE(stats.recall, 0.9);
}

TEST(SystemByzantine, InertAdaptiveAdversaryKeepsTheRoundSeriesBitIdentical) {
  // The adaptive overload's inert contract: wiring an AdaptiveAdversary
  // whose params().any() is false must leave the full round series
  // bit-identical to the same pipeline without it — the acceptance
  // zero-adversary anchor for the closed-loop layer.
  const auto game = make_chain_game(3);
  const auto params = small_params();

  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;

  byzantine::ReportPipeline plain_pipe(3, 8, params.vehicles_per_region,
                                       popts);
  CooperativePerceptionSystem plain(game, params, nullptr, &plain_pipe);
  plain.init_from(game.uniform_state());

  byzantine::AdaptiveAdversary inert(3, params.vehicles_per_region,
                                     byzantine::AdaptiveAdversaryParams{});
  ASSERT_FALSE(inert.active());
  byzantine::ReportPipeline wired_pipe(3, 8, params.vehicles_per_region,
                                       popts);
  CooperativePerceptionSystem wired(game, params, nullptr, &wired_pipe,
                                    &inert);
  wired.init_from(game.uniform_state());

  const auto fields = share_band_fields(3, 0.7, 1.0);
  core::FdsOptions fopts;
  fopts.max_step = 0.15;
  core::FdsController plain_ctrl(game, fields, fopts);
  core::FdsController wired_ctrl(game, fields, fopts);
  for (std::size_t round = 0; round < 30; ++round) {
    const auto a = plain.run_round(plain_ctrl);
    const auto b = wired.run_round(wired_ctrl);
    expect_reports_bit_identical(a, b, round);
    EXPECT_EQ(b.byzantine.adaptive_dormant, 0u);
  }
}

TEST(SystemByzantine, AdaptiveRunIsBitIdenticalAcrossThreadCounts) {
  // The determinism leg of the acceptance criteria: the full closed loop —
  // adaptive probing attackers, trust-armed pipeline, telemetry-driven
  // floors — must produce bit-identical trajectories at 1, 2, and 8 worker
  // lanes. The observation feedback runs serially on the round thread in
  // (region, vehicle) order, so lane count must be a pure throughput knob.
  const auto game = make_chain_game(3, /*beta_lo=*/1.5, /*beta_hi=*/1.5);
  byzantine::AdaptiveAdversaryParams aparams;
  aparams.attacker_fraction = 0.25;
  aparams.policy = byzantine::AdaptivePolicy::kThresholdProbe;
  aparams.seed = 17;

  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  popts.aggregator.reject_outliers = true;
  popts.trust.enabled = true;

  std::vector<std::vector<double>> reference_x;
  std::vector<std::vector<std::vector<double>>> reference_p;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto params = small_params();
    params.vehicles_per_region = 40;
    params.num_threads = threads;
    byzantine::AdaptiveAdversary adaptive(3, params.vehicles_per_region,
                                          aparams);
    byzantine::ReportPipeline pipeline(3, 8, params.vehicles_per_region,
                                       popts);
    CooperativePerceptionSystem sys(game, params, nullptr, &pipeline,
                                    &adaptive);
    sys.init_from(game.uniform_state());
    core::FdsOptions fopts;
    fopts.max_step = 0.15;
    core::FdsController ctrl(game, share_band_fields(3, 0.7, 1.0), fopts);

    std::vector<std::vector<double>> xs;
    std::vector<std::vector<std::vector<double>>> ps;
    for (std::size_t round = 0; round < 40; ++round) {
      const auto report = sys.run_round(ctrl);
      ctrl.set_desired(byzantine::density_weighted_fields(
          3, 8, report.byzantine.density, /*base_floor=*/0.7, /*slope=*/0.6));
      xs.push_back(report.x);
      ps.push_back(report.state.p);
    }
    if (reference_x.empty()) {
      reference_x = std::move(xs);
      reference_p = std::move(ps);
    } else {
      EXPECT_EQ(xs, reference_x);  // exact: bit-identical, not approximately
      EXPECT_EQ(ps, reference_p);
    }
  }
}

}  // namespace
}  // namespace avcp::system
