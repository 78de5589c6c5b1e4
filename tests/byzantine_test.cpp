// Byzantine layer unit tests: adversary scheduling, robust estimators,
// reputation/quarantine state machine, and the report pipeline — plus the
// query-order-independence property shared with the fault layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "byzantine/adversary_model.h"
#include "byzantine/report_pipeline.h"
#include "byzantine/reputation.h"
#include "byzantine/robust_aggregator.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "core/lattice.h"
#include "faults/fault_model.h"

namespace avcp::byzantine {
namespace {

// ---------------------------------------------------------------- estimators

TEST(RobustAggregator, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(RobustAggregator::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(RobustAggregator::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(RobustAggregator::median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(RobustAggregator::median({}), 0.0);
}

TEST(RobustAggregator, MadOfConstantSampleIsZero) {
  const std::vector<double> values(10, 4.2);
  EXPECT_DOUBLE_EQ(RobustAggregator::mad(values, 4.2), 0.0);
}

TEST(RobustAggregator, MeanModeMatchesArithmeticMeanBitwise) {
  // The passthrough contract: kMean must reproduce the plain index-order
  // sum-then-divide exactly, not merely approximately.
  RobustOptions options;
  options.mode = AggregationMode::kMean;
  const RobustAggregator agg(options);
  const std::vector<double> values = {0.1, 0.7, 0.2, 0.35, 0.05};
  double sum = 0.0;
  for (const double v : values) sum += v;
  EXPECT_EQ(agg.aggregate(values), sum / 5.0);
}

TEST(RobustAggregator, MedianModeShrugsOffMinorityOutliers) {
  RobustOptions options;
  options.mode = AggregationMode::kMedian;
  const RobustAggregator agg(options);
  std::vector<double> values(7, 1.0);
  values[0] = values[1] = 1e6;  // 2/7 colluding liars
  EXPECT_DOUBLE_EQ(agg.aggregate(values), 1.0);
}

TEST(RobustAggregator, OutlierScoresFlagLiarsAgainstExactHonestSample) {
  // Honest telemetry is exact, so the MAD collapses to zero and the
  // relative floor takes over — any deviating value scores enormously.
  RobustOptions options;
  options.reject_outliers = true;
  options.mad_threshold = 8.0;
  const RobustAggregator agg(options);
  std::vector<double> values(12, 60.0);
  values[3] = 240.0;  // density poisoner, x4
  const auto scores = agg.outlier_scores(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == 3) {
      EXPECT_TRUE(agg.is_outlier(scores[i]));
    } else {
      EXPECT_FALSE(agg.is_outlier(scores[i]));
    }
  }
}

TEST(RobustAggregator, PassthroughPredicate) {
  RobustOptions options;
  EXPECT_TRUE(options.passthrough());
  options.reject_outliers = true;
  EXPECT_FALSE(options.passthrough());
  options.reject_outliers = false;
  options.mode = AggregationMode::kMedian;
  EXPECT_FALSE(options.passthrough());
}

// ---------------------------------------------------------------- adversary

TEST(AdversaryModel, InertModelNeverAttacks) {
  const AdversaryModel model(AdversaryParams{});
  EXPECT_FALSE(model.active());
  for (core::RegionId i = 0; i < 3; ++i) {
    for (std::size_t v = 0; v < 50; ++v) {
      EXPECT_FALSE(model.is_attacker(i, v));
      EXPECT_FALSE(model.attacking(7, i, v));
    }
  }
}

TEST(AdversaryModel, AttackerFractionIsApproximatelyRespected) {
  AdversaryParams params;
  params.attacker_fraction = 0.25;
  params.seed = 11;
  const AdversaryModel model(params);
  std::size_t attackers = 0;
  const std::size_t n = 20000;
  for (std::size_t v = 0; v < n; ++v) {
    if (model.is_attacker(0, v)) ++attackers;
  }
  EXPECT_NEAR(static_cast<double>(attackers) / static_cast<double>(n), 0.25,
              0.02);
}

TEST(AdversaryModel, FalsifyOnlyTouchesAttackingTriples) {
  AdversaryParams params;
  params.attacker_fraction = 0.3;
  params.strategy = AttackStrategy::kDensityPoison;
  params.magnitude = 4.0;
  params.seed = 5;
  const AdversaryModel model(params);
  const VehicleReport honest{/*decision=*/3, /*beta=*/1.5, /*gamma=*/1.0,
                             /*density=*/60.0};
  for (std::size_t v = 0; v < 100; ++v) {
    const VehicleReport r = model.falsify(0, 0, v, honest);
    if (model.attacking(0, 0, v)) {
      EXPECT_DOUBLE_EQ(r.density, 240.0);
      EXPECT_EQ(r.decision, honest.decision);  // telemetry-only strategy
    } else {
      EXPECT_DOUBLE_EQ(r.density, honest.density);
    }
  }
}

TEST(AdversaryModel, InflateSharingClaimsTopButBehavesBottom) {
  const core::DecisionLattice lattice(3);
  AdversaryParams params;
  params.attacker_fraction = 1.0;
  params.strategy = AttackStrategy::kInflateSharing;
  const AdversaryModel model(params);
  const VehicleReport honest{/*decision=*/4, 1.0, 1.0, 60.0};
  const VehicleReport r = model.falsify(0, 0, 0, honest);
  EXPECT_EQ(r.decision, 0u);  // claims share-everything
  EXPECT_EQ(model.behavior_decision(0, 0, 0, honest.decision, lattice),
            lattice.num_decisions() - 1);  // uploads nothing
}

TEST(AdversaryModel, ColludingBiasRespectsTargetRegion) {
  AdversaryParams params;
  params.attacker_fraction = 1.0;
  params.strategy = AttackStrategy::kColludingBias;
  params.target_region = 1;
  const AdversaryModel model(params);
  EXPECT_FALSE(model.attacking(0, 0, 0));
  EXPECT_TRUE(model.attacking(0, 1, 0));
  EXPECT_FALSE(model.attacking(0, 2, 0));
}

TEST(AdversaryModel, FlipFlopStartsHonestAndAlternates) {
  AdversaryParams params;
  params.attacker_fraction = 1.0;
  params.strategy = AttackStrategy::kFlipFlop;
  params.flip_period = 3;
  const AdversaryModel model(params);
  const bool expected[] = {false, false, false, true,  true,  true,
                           false, false, false, true,  true,  true};
  for (std::size_t round = 0; round < 12; ++round) {
    EXPECT_EQ(model.attacking(round, 0, 0), expected[round]) << round;
  }
}

// Satellite: both hash-scheduled models are query-order independent — the
// schedule is a pure function of (seed, indices), so querying in any
// shuffled order (or re-querying) reproduces identical answers.
TEST(ScheduleProperty, AdversaryModelIsQueryOrderIndependent) {
  AdversaryParams params;
  params.attacker_fraction = 0.2;
  params.strategy = AttackStrategy::kFlipFlop;
  params.flip_period = 4;
  params.seed = 77;

  struct Query {
    std::size_t round;
    core::RegionId region;
    std::size_t vehicle;
  };
  std::vector<Query> queries;
  for (std::size_t round = 0; round < 6; ++round) {
    for (core::RegionId i = 0; i < 3; ++i) {
      for (std::size_t v = 0; v < 40; ++v) queries.push_back({round, i, v});
    }
  }

  const AdversaryModel first(params);
  std::vector<std::uint8_t> in_order;
  in_order.reserve(queries.size());
  for (const Query& q : queries) {
    in_order.push_back(first.attacking(q.round, q.region, q.vehicle) ? 1 : 0);
  }

  std::vector<std::size_t> perm(queries.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(123);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }

  const AdversaryModel second(params);
  std::vector<std::uint8_t> shuffled(queries.size(), 0);
  for (const std::size_t j : perm) {
    const Query& q = queries[j];
    shuffled[j] = second.attacking(q.round, q.region, q.vehicle) ? 1 : 0;
  }
  EXPECT_EQ(in_order, shuffled);
}

TEST(ScheduleProperty, FaultModelIsQueryOrderIndependent) {
  faults::FaultParams params;
  params.upload_loss_rate = 0.1;
  params.delivery_loss_rate = 0.05;
  params.report_loss_rate = 0.2;
  params.outage_rate = 0.05;
  params.seed = 31;

  struct Query {
    std::size_t round;
    core::RegionId region;
    std::size_t exchange;
    std::size_t a;
    std::size_t b;
  };
  std::vector<Query> queries;
  for (std::size_t round = 0; round < 4; ++round) {
    for (core::RegionId i = 0; i < 2; ++i) {
      for (std::size_t e = 0; e < 2; ++e) {
        for (std::size_t a = 0; a < 8; ++a) {
          for (std::size_t b = 0; b < 8; ++b) {
            queries.push_back({round, i, e, a, b});
          }
        }
      }
    }
  }
  const auto probe = [](const faults::FaultModel& model, const Query& q) {
    std::uint8_t bits = 0;
    if (model.upload_lost(q.round, q.region, q.exchange, q.a)) bits |= 1;
    if (model.delivery_lost(q.round, q.region, q.exchange, q.a, q.b)) bits |= 2;
    if (model.report_lost(q.round, q.region)) bits |= 4;
    if (model.region_down(q.round, q.region)) bits |= 8;
    return bits;
  };

  const faults::FaultModel first(params);
  std::vector<std::uint8_t> in_order;
  in_order.reserve(queries.size());
  for (const Query& q : queries) in_order.push_back(probe(first, q));

  std::vector<std::size_t> perm(queries.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(321);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }

  const faults::FaultModel second(params);
  std::vector<std::uint8_t> shuffled(queries.size(), 0);
  for (const std::size_t j : perm) shuffled[j] = probe(second, queries[j]);
  EXPECT_EQ(in_order, shuffled);
}

// ---------------------------------------------------------------- reputation

TEST(ReputationTracker, QuarantinesPersistentOffenderAfterMinRounds) {
  ReputationParams params;
  params.decay = 0.8;
  params.quarantine_threshold = 2.0;
  params.min_rounds = 4;
  ReputationTracker tracker(1, 2, params);

  std::size_t quarantined_at = 0;
  for (std::size_t round = 0; round < 20; ++round) {
    tracker.observe(0, 0, 6.0);  // persistent liar at the score cap
    tracker.end_round(round);
    if (tracker.quarantined(0, 0) && quarantined_at == 0) {
      quarantined_at = round + 1;
    }
  }
  EXPECT_TRUE(tracker.quarantined(0, 0));
  EXPECT_GE(quarantined_at, params.min_rounds);
  EXPECT_LE(quarantined_at, 10u);
  EXPECT_FALSE(tracker.quarantined(0, 1));  // the silent vehicle stays clean
  EXPECT_EQ(tracker.quarantined_in(0), 1u);
  EXPECT_EQ(tracker.total_quarantined(), 1u);
  ASSERT_FALSE(tracker.events().empty());
  EXPECT_TRUE(tracker.events().front().quarantined);
  EXPECT_EQ(tracker.events().front().vehicle, 0u);
}

TEST(ReputationTracker, MinRoundsGuardsTheBlindStart) {
  ReputationParams params;
  params.decay = 0.0;  // smoothed == this round's raw score
  params.quarantine_threshold = 2.0;
  params.min_rounds = 4;
  ReputationTracker tracker(1, 1, params);
  for (std::size_t round = 0; round < 3; ++round) {
    tracker.observe(0, 0, 6.0);
    tracker.end_round(round);
    EXPECT_FALSE(tracker.quarantined(0, 0)) << round;  // spike, not persistence
  }
  tracker.observe(0, 0, 6.0);
  tracker.end_round(3);
  EXPECT_TRUE(tracker.quarantined(0, 0));
}

TEST(ReputationTracker, RehabilitatesAfterCleanStreak) {
  ReputationParams params;
  params.decay = 0.5;
  params.quarantine_threshold = 2.0;
  params.rehab_threshold = 0.5;
  params.rehab_rounds = 3;
  params.min_rounds = 1;
  ReputationTracker tracker(1, 1, params);

  std::size_t round = 0;
  for (; round < 6; ++round) {
    tracker.observe(0, 0, 6.0);
    tracker.end_round(round);
  }
  ASSERT_TRUE(tracker.quarantined(0, 0));
  // Falsely-flagged honest vehicle: scores stop arriving, the EWMA decays
  // below rehab_threshold, and after rehab_rounds clean rounds it's out.
  std::size_t released_at = 0;
  for (; round < 30; ++round) {
    tracker.end_round(round);
    if (!tracker.quarantined(0, 0)) {
      released_at = round;
      break;
    }
  }
  EXPECT_FALSE(tracker.quarantined(0, 0));
  EXPECT_GT(released_at, 6u);
  ASSERT_GE(tracker.events().size(), 2u);
  EXPECT_FALSE(tracker.events().back().quarantined);
}

TEST(ReputationTracker, ScoreCapBoundsOneRoundsInfluence) {
  ReputationParams params;
  params.decay = 0.0;
  params.score_cap = 6.0;
  params.min_rounds = 1;
  ReputationTracker tracker(1, 1, params);
  tracker.observe(0, 0, 1e9);  // astronomical telemetry residual
  tracker.end_round(0);
  EXPECT_DOUBLE_EQ(tracker.score(0, 0), 6.0);
}

TEST(ReputationTracker, ZeroRehabThresholdIsReachable) {
  // Regression for the open-boundary release bug: with rehab_threshold 0.0
  // ("release only a fully clean score") the geometric decay approached 0
  // but the strict comparison never fired, so a falsely-flagged vehicle
  // stayed quarantined forever. The clean snap plus the closed (<=) test
  // make the release land in finitely many rounds.
  ReputationParams params;
  params.decay = 0.8;
  params.quarantine_threshold = 2.0;
  params.rehab_threshold = 0.0;
  params.rehab_rounds = 2;
  params.min_rounds = 1;
  ReputationTracker tracker(1, 1, params);
  for (std::size_t round = 0; round < 8; ++round) {
    tracker.observe(0, 0, 6.0);
    tracker.end_round(round);
  }
  ASSERT_TRUE(tracker.quarantined(0, 0));
  bool released = false;
  for (std::size_t round = 8; round < 300; ++round) {
    tracker.end_round(round);
    if (!tracker.quarantined(0, 0)) {
      released = true;
      break;
    }
  }
  EXPECT_TRUE(released);
  EXPECT_EQ(tracker.score(0, 0), 0.0);  // snapped, not merely tiny
}

TEST(ReputationTracker, DecayFloorKeepsRepeatOffendersWarm) {
  // Permanent suspicion: once a vehicle has been quarantined its EWMA never
  // decays below the floor, so a second offense re-trips the threshold
  // faster than the first. A never-flagged vehicle still decays to zero.
  ReputationParams params;
  params.decay = 0.5;
  params.quarantine_threshold = 2.0;
  params.rehab_threshold = 1.0;
  params.rehab_rounds = 2;
  params.min_rounds = 1;
  params.decay_floor = 0.8;
  ReputationTracker tracker(1, 2, params);
  std::size_t round = 0;
  for (; round < 6; ++round) {
    tracker.observe(0, 0, 6.0);
    tracker.end_round(round);
  }
  ASSERT_TRUE(tracker.quarantined(0, 0));
  for (; round < 40; ++round) tracker.end_round(round);
  EXPECT_FALSE(tracker.quarantined(0, 0));       // released...
  EXPECT_DOUBLE_EQ(tracker.score(0, 0), 0.8);    // ...but floored, not clean
  EXPECT_EQ(tracker.score(0, 1), 0.0);           // the clean vehicle is clean
}

TEST(ReputationParamsValidate, RejectsIncoherentKnobs) {
  const auto reject = [](auto&& mutate) {
    ReputationParams params;
    mutate(params);
    EXPECT_THROW(params.validate(), ContractViolation);
    EXPECT_THROW(ReputationTracker(1, 2, params), ContractViolation);
  };
  reject([](auto& p) { p.decay = 1.0; });
  reject([](auto& p) { p.decay = -0.1; });
  reject([](auto& p) { p.quarantine_threshold = 0.0; });
  reject([](auto& p) { p.rehab_threshold = p.quarantine_threshold; });
  reject([](auto& p) { p.rehab_rounds = 0; });
  reject([](auto& p) { p.min_rounds = 0; });
  reject([](auto& p) { p.score_cap = 0.0; });
  reject([](auto& p) { p.decay_floor = p.quarantine_threshold; });
}

// ------------------------------------------------------------------ pipeline

std::vector<VehicleReport> honest_reports(std::size_t n,
                                          core::DecisionId decision,
                                          double beta, double gamma,
                                          double density) {
  std::vector<VehicleReport> reports(n);
  for (auto& r : reports) {
    r.decision = decision;
    r.beta = beta;
    r.gamma = gamma;
    r.density = density;
  }
  return reports;
}

TEST(ReportPipeline, PassthroughMatchesTrustingMeanExactly) {
  PipelineOptions options;
  options.enforce_quarantine = false;
  options.telemetry_weight = 0.0;
  options.behavior_weight = 0.0;
  ReportPipeline pipeline(1, 8, 7, options);

  auto reports = honest_reports(7, 0, 1.5, 1.0, 7.0);
  reports[2].decision = 5;
  reports[6].decision = 5;
  reports[3].decision = 7;
  const auto obs = pipeline.aggregate(0, 0, reports);

  // The exact arithmetic of the trusting mean: count in index order, then
  // divide by the fleet size.
  std::vector<double> expected(8, 0.0);
  for (const auto& r : reports) expected[r.decision] += 1.0;
  for (double& v : expected) v /= 7.0;
  EXPECT_EQ(obs.p, expected);
  EXPECT_EQ(obs.reports_used, 7u);
  EXPECT_EQ(obs.outliers_rejected, 0u);
  EXPECT_DOUBLE_EQ(obs.beta, 1.5);
  EXPECT_DOUBLE_EQ(obs.density, 7.0);
}

TEST(ReportPipeline, RejectsTelemetryOutliersFromAggregates) {
  PipelineOptions options;
  options.aggregator.mode = AggregationMode::kMedian;
  options.aggregator.reject_outliers = true;
  ReportPipeline pipeline(1, 8, 10, options);

  auto reports = honest_reports(10, 2, 1.5, 1.0, 10.0);
  reports[4].density = 40.0;  // poisoner
  const auto obs = pipeline.aggregate(0, 0, reports);
  EXPECT_DOUBLE_EQ(obs.density, 10.0);
  EXPECT_EQ(obs.outliers_rejected, 1u);
  EXPECT_EQ(obs.reports_used, 9u);
  // The rejected report's decision claim is excluded from the histogram.
  EXPECT_DOUBLE_EQ(obs.p[2], 1.0);
}

TEST(ReportPipeline, PersistentTelemetryLiarGetsQuarantinedAndExcluded) {
  PipelineOptions options;
  options.aggregator.mode = AggregationMode::kMedian;
  options.aggregator.reject_outliers = true;
  options.reputation.min_rounds = 4;
  ReportPipeline pipeline(1, 8, 10, options);

  for (std::size_t round = 0; round < 12; ++round) {
    auto reports = honest_reports(10, 2, 1.5, 1.0, 10.0);
    reports[7].density = 80.0;
    pipeline.aggregate(round, 0, reports);
    pipeline.end_round(round);
  }
  EXPECT_TRUE(pipeline.reputation().quarantined(0, 7));
  EXPECT_TRUE(pipeline.excluded(0, 7));
  EXPECT_FALSE(pipeline.excluded(0, 0));

  // Once excluded, its report no longer even counts as a rejected outlier
  // — it's dropped before aggregation.
  auto reports = honest_reports(10, 2, 1.5, 1.0, 10.0);
  reports[7].density = 80.0;
  const auto obs = pipeline.aggregate(12, 0, reports);
  EXPECT_EQ(obs.reports_used, 9u);
  EXPECT_EQ(obs.quarantined, 1u);
  EXPECT_DOUBLE_EQ(obs.density, 10.0);
}

TEST(ReportPipeline, ZeroUploadFreeRiderAccruesBehaviouralPenalty) {
  PipelineOptions options;
  options.reputation.min_rounds = 4;
  ReportPipeline pipeline(1, 8, 10, options);

  for (std::size_t round = 0; round < 12; ++round) {
    // Everyone claims share-everything; vehicle 0 uploads nothing.
    const auto reports = honest_reports(10, 0, 1.5, 1.0, 10.0);
    pipeline.aggregate(round, 0, reports);
    std::vector<double> mass(10, 0.02);
    mass[0] = 0.0;
    pipeline.observe_uploads(0, mass);
    pipeline.end_round(round);
  }
  EXPECT_TRUE(pipeline.reputation().quarantined(0, 0));
  for (std::size_t v = 1; v < 10; ++v) {
    EXPECT_FALSE(pipeline.reputation().quarantined(0, v)) << v;
  }
}

TEST(ReportPipeline, NoPenaltyWhenCohortUploadsNothing) {
  PipelineOptions options;
  options.reputation.min_rounds = 1;
  ReportPipeline pipeline(1, 8, 6, options);
  for (std::size_t round = 0; round < 10; ++round) {
    // The whole share-everything cohort uploads nothing (nobody collected
    // anything): zero mass carries no evidence against any one member.
    const auto reports = honest_reports(6, 0, 1.5, 1.0, 6.0);
    pipeline.aggregate(round, 0, reports);
    pipeline.observe_uploads(0, std::vector<double>(6, 0.0));
    pipeline.end_round(round);
  }
  EXPECT_EQ(pipeline.reputation().total_quarantined(), 0u);
}

TEST(ReportPipeline, SmallCohortSkipsBehaviouralCheck) {
  PipelineOptions options;
  options.min_cohort = 4;
  options.reputation.min_rounds = 1;
  ReportPipeline pipeline(1, 8, 3, options);
  for (std::size_t round = 0; round < 10; ++round) {
    const auto reports = honest_reports(3, 0, 1.5, 1.0, 3.0);
    pipeline.aggregate(round, 0, reports);
    std::vector<double> mass = {0.0, 0.1, 0.1};  // too few peers to judge
    pipeline.observe_uploads(0, mass);
    pipeline.end_round(round);
  }
  EXPECT_EQ(pipeline.reputation().total_quarantined(), 0u);
}

TEST(ReportPipeline, PartialSharingClaimsAreNotAudited) {
  // A vehicle claiming a partial-sharing decision often honestly holds no
  // item of the claimed sensors; zero upload mass there is not evidence.
  PipelineOptions options;
  options.reputation.min_rounds = 1;
  ReportPipeline pipeline(1, 8, 10, options);
  for (std::size_t round = 0; round < 10; ++round) {
    auto reports = honest_reports(10, 0, 1.5, 1.0, 10.0);
    for (std::size_t v = 6; v < 10; ++v) reports[v].decision = 3;
    pipeline.aggregate(round, 0, reports);
    std::vector<double> mass(10, 0.02);
    for (std::size_t v = 6; v < 10; ++v) mass[v] = 0.0;
    pipeline.observe_uploads(0, mass);
    pipeline.end_round(round);
  }
  EXPECT_EQ(pipeline.reputation().total_quarantined(), 0u);
}

TEST(ReportPipeline, QuarantinedFreeRiderKeepsRefreshingItsPenalty) {
  // Uploads of quarantined vehicles are still observed (the plant accepts
  // and impounds them), so a free-rider that keeps uploading nothing never
  // rehabilitates, while an honest vehicle that resumes uploading does.
  PipelineOptions options;
  options.reputation.min_rounds = 4;
  options.reputation.rehab_rounds = 3;
  ReportPipeline pipeline(1, 8, 10, options);
  auto run_round = [&](std::size_t round, double rider_mass) {
    const auto reports = honest_reports(10, 0, 1.5, 1.0, 10.0);
    pipeline.aggregate(round, 0, reports);
    std::vector<double> mass(10, 0.02);
    mass[0] = rider_mass;
    pipeline.observe_uploads(0, mass);
    pipeline.end_round(round);
  };
  std::size_t round = 0;
  for (; round < 10; ++round) run_round(round, 0.0);
  ASSERT_TRUE(pipeline.reputation().quarantined(0, 0));
  // Still free-riding: 30 more rounds and it is still in.
  for (; round < 40; ++round) run_round(round, 0.0);
  EXPECT_TRUE(pipeline.reputation().quarantined(0, 0));
  // Reformed (or falsely flagged): positive mass lets the score decay out.
  for (; round < 80; ++round) run_round(round, 0.02);
  EXPECT_FALSE(pipeline.reputation().quarantined(0, 0));
}

TEST(ReportPipeline, AllReportsExcludedFallsBackToUniform) {
  PipelineOptions options;
  options.reputation.min_rounds = 1;
  options.reputation.quarantine_threshold = 0.5;
  options.reputation.rehab_threshold = 0.1;
  ReportPipeline pipeline(1, 4, 4, options);
  // Drive every vehicle into quarantine via the behavioural channel is
  // awkward; drive via telemetry instead: make them all lie about beta
  // relative to... themselves is impossible (they ARE the median). Use the
  // reputation tracker directly to force the state.
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t v = 0; v < 4; ++v) pipeline.reputation().observe(0, v, 6.0);
    pipeline.end_round(round);
  }
  ASSERT_EQ(pipeline.reputation().total_quarantined(), 4u);
  const auto obs =
      pipeline.aggregate(3, 0, honest_reports(4, 1, 1.0, 1.0, 4.0));
  EXPECT_EQ(obs.reports_used, 0u);
  for (const double v : obs.p) EXPECT_DOUBLE_EQ(v, 0.25);
}

// ------------------------------------------------------- density-weighted

TEST(DensityWeightedFields, DenseRegionsGetHigherFloors) {
  const std::vector<double> density = {60.0, 120.0, 30.0};
  const auto fields = density_weighted_fields(3, 8, density,
                                              /*base_floor=*/0.5,
                                              /*slope=*/0.4);
  const double f0 = fields.target(0, 0).lo;
  const double f1 = fields.target(1, 0).lo;
  const double f2 = fields.target(2, 0).lo;
  EXPECT_DOUBLE_EQ(f0, 0.5);  // at the median
  EXPECT_GT(f1, f0);
  EXPECT_LT(f2, f0);
  for (core::RegionId i = 0; i < 3; ++i) {
    EXPECT_GE(fields.target(i, 0).lo, 0.05);
    EXPECT_LE(fields.target(i, 0).lo, 0.95);
    EXPECT_DOUBLE_EQ(fields.target(i, 0).hi, 1.0);
  }
}

TEST(DensityWeightedFields, PoisonedMeanMovesFloorRobustMedianDoesNot) {
  // The attack surface in one picture: one region's density inflated x4.
  // A trusting mean shifts every floor; the median-anchored normalisation
  // keeps the clean regions' floors put.
  const std::vector<double> clean = {60.0, 60.0, 60.0};
  const std::vector<double> poisoned = {60.0, 240.0, 60.0};
  const auto fields_clean = density_weighted_fields(3, 8, clean, 0.5, 0.4);
  const auto fields_poisoned =
      density_weighted_fields(3, 8, poisoned, 0.5, 0.4);
  EXPECT_DOUBLE_EQ(fields_clean.target(0, 0).lo,
                   fields_poisoned.target(0, 0).lo);
  EXPECT_DOUBLE_EQ(fields_clean.target(2, 0).lo,
                   fields_poisoned.target(2, 0).lo);
  EXPECT_GT(fields_poisoned.target(1, 0).lo, fields_clean.target(1, 0).lo);
}

}  // namespace
}  // namespace avcp::byzantine
