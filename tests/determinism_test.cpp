// Regression lock for the parallel round engines' determinism contract:
// for any fixed seed, the full trajectory of every engine is bit-identical
// at every thread count. This is what lets num_threads be a pure throughput
// knob — experiments are reproducible on any machine regardless of core
// count. The contract is earned by construction (per-(round, region)
// hash-derived RNG streams, index-owned writes, caller-side reductions in
// index order — see common/thread_pool.h); these tests pin it.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "byzantine/adversary_model.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "byzantine/report_pipeline.h"
#include "core/fds.h"
#include "core/fleet_stream.h"
#include "faults/fault_model.h"
#include "system/fleet_engine.h"
#include "system/system.h"
#include "test_support.h"
#include "zero_churn_fleet.h"

namespace avcp::system {
namespace {

using core::testing::make_chain_game;

// Engine-level counts: the engines clamp requests to the machine's core
// count (ThreadPool::clamped_lanes), so 13 exercises the clamp path on
// most machines and real extra lanes on big ones. Raw-pool counts below
// bypass the clamp to lock the protocol under true oversubscription.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 8, 13};
constexpr std::size_t kRounds = 12;

core::DesiredFields share_band_fields(std::size_t regions, double lo,
                                      double hi) {
  core::DesiredFields fields(regions, 8);
  for (core::RegionId i = 0; i < regions; ++i) {
    fields.set_target(i, 0, Interval{lo, hi});
  }
  return fields;
}

void expect_reports_identical(const RoundReport& a, const RoundReport& b,
                              std::size_t threads, std::size_t round) {
  ASSERT_EQ(a.x, b.x) << "threads " << threads << " round " << round;
  ASSERT_EQ(a.mean_utility, b.mean_utility)
      << "threads " << threads << " round " << round;
  ASSERT_EQ(a.mean_privacy, b.mean_privacy)
      << "threads " << threads << " round " << round;
  ASSERT_EQ(a.exposed_privacy, b.exposed_privacy)
      << "threads " << threads << " round " << round;
  ASSERT_EQ(a.state.p, b.state.p)
      << "threads " << threads << " round " << round;
  ASSERT_EQ(a.faults.uploads_lost, b.faults.uploads_lost);
  ASSERT_EQ(a.faults.deliveries_lost, b.faults.deliveries_lost);
  ASSERT_EQ(a.faults.uploads_lost_by_region, b.faults.uploads_lost_by_region);
  ASSERT_EQ(a.faults.deliveries_lost_by_region,
            b.faults.deliveries_lost_by_region);
  ASSERT_EQ(a.byzantine.observed.p, b.byzantine.observed.p);
  ASSERT_EQ(a.byzantine.beta, b.byzantine.beta);
  ASSERT_EQ(a.byzantine.gamma, b.byzantine.gamma);
  ASSERT_EQ(a.byzantine.density, b.byzantine.density);
  ASSERT_EQ(a.byzantine.reports_used, b.byzantine.reports_used);
  ASSERT_EQ(a.byzantine.outliers_rejected, b.byzantine.outliers_rejected);
  ASSERT_EQ(a.byzantine.quarantined, b.byzantine.quarantined);
  ASSERT_EQ(a.byzantine.total_quarantined, b.byzantine.total_quarantined);
}

/// Runs a fresh system trajectory at the given thread count.
std::vector<RoundReport> run_system(SystemParams params, std::size_t threads,
                                    const faults::FaultModel* faults,
                                    byzantine::AdversaryModel* adversary,
                                    bool with_pipeline) {
  const auto game = make_chain_game(4);
  params.num_threads = threads;
  byzantine::PipelineOptions popts;
  popts.aggregator.mode = byzantine::AggregationMode::kMedian;
  byzantine::ReportPipeline pipeline(4, 8, params.vehicles_per_region, popts);
  CooperativePerceptionSystem sys(game, params, faults,
                                  with_pipeline ? &pipeline : nullptr,
                                  adversary);
  sys.init_from(game.uniform_state());
  core::FdsController controller(game, share_band_fields(4, 0.6, 1.0));
  std::vector<RoundReport> reports;
  reports.reserve(kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    reports.push_back(sys.run_round(controller));
  }
  return reports;
}

TEST(Determinism, SystemTrajectoryIsThreadCountInvariant) {
  SystemParams params;
  params.vehicles_per_region = 40;
  params.seed = 17;
  const auto baseline = run_system(params, 1, nullptr, nullptr, false);
  for (const std::size_t threads : kThreadCounts) {
    const auto run = run_system(params, threads, nullptr, nullptr, false);
    ASSERT_EQ(run.size(), baseline.size());
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      expect_reports_identical(baseline[r], run[r], threads, r);
    }
  }
}

TEST(Determinism, FaultedSystemTrajectoryIsThreadCountInvariant) {
  SystemParams params;
  params.vehicles_per_region = 40;
  params.seed = 23;
  faults::FaultParams fparams;
  fparams.upload_loss_rate = 0.1;
  fparams.delivery_loss_rate = 0.05;
  fparams.outage_rate = 0.1;
  fparams.seed = 5;
  const faults::FaultModel faults(fparams);
  const auto baseline = run_system(params, 1, &faults, nullptr, false);
  for (const std::size_t threads : kThreadCounts) {
    const auto run = run_system(params, threads, &faults, nullptr, false);
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      expect_reports_identical(baseline[r], run[r], threads, r);
    }
  }
}

TEST(Determinism, PipelinedByzantineTrajectoryIsThreadCountInvariant) {
  // The robust report pipeline (median aggregation, reputation scoring,
  // quarantine) runs per-region inside the parallel fan-out; its whole
  // observation series must be thread-count-invariant too.
  SystemParams params;
  params.vehicles_per_region = 40;
  params.seed = 31;
  byzantine::AdversaryParams aparams;
  aparams.attacker_fraction = 0.2;
  aparams.strategy = byzantine::AttackStrategy::kInflateSharing;
  aparams.seed = 13;
  byzantine::AdversaryModel adversary(aparams);
  const auto baseline = run_system(params, 1, nullptr, &adversary, true);
  for (const std::size_t threads : kThreadCounts) {
    const auto run = run_system(params, threads, nullptr, &adversary, true);
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      expect_reports_identical(baseline[r], run[r], threads, r);
    }
  }
}

TEST(Determinism, AggregatedSystemTrajectoryIsThreadCountInvariant) {
  // The class-aggregated kernel promises its own determinism (not pairwise
  // bit-identity): per-region plane ownership keeps its binomial/item draws
  // sequential per region, so the trajectory must not move with threads.
  SystemParams params;
  params.vehicles_per_region = 40;
  params.seed = 17;
  params.data_plane_mode = perception::DataPlaneMode::kClassAggregated;
  const auto baseline = run_system(params, 1, nullptr, nullptr, false);
  for (const std::size_t threads : kThreadCounts) {
    const auto run = run_system(params, threads, nullptr, nullptr, false);
    ASSERT_EQ(run.size(), baseline.size());
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      expect_reports_identical(baseline[r], run[r], threads, r);
    }
  }
}

// The zero-churn service at the engine-level lane counts (the service's
// own invariance test covers 1, 2 and 8 lanes under full chaos).
TEST(Determinism, ZeroChurnFleetTrajectoryIsThreadCountInvariant) {
  const auto game = make_chain_game(5);
  auto run = [&](std::size_t threads) {
    service::ServiceParams params;
    params.vehicles_per_region = 120;
    params.seed = 77;
    params.num_threads = threads;
    service::testing::ZeroChurnFleet fleet(game, params, 0.6,
                                           game.uniform_state());
    std::vector<std::vector<std::vector<double>>> states;
    for (std::size_t r = 0; r < 20; ++r) {
      fleet.svc.run_epoch();
      states.push_back(service::testing::empirical_from_fleet(game, fleet.svc));
    }
    return states;
  };
  const auto baseline = run(1);
  for (const std::size_t threads : kThreadCounts) {
    const auto states = run(threads);
    ASSERT_EQ(states.size(), baseline.size());
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      ASSERT_EQ(states[r], baseline[r])
          << "threads " << threads << " round " << r;
    }
  }
}

TEST(Determinism, ProtocolHoldsUnderTrueOversubscription) {
  // The engines clamp their lane counts to the hardware, so system-level
  // runs can never oversubscribe; this locks the determinism protocol on
  // a raw ThreadPool whose constructor honours the exact count — 16 lanes
  // on any CI box means lanes the OS leaves unscheduled mid-stage. The
  // workload follows the protocol: per-index hash-derived RNG streams,
  // index-owned writes, caller-side ordered reduction, over a
  // cost-balanced chunk plan whose boundaries ignore lane count.
  constexpr std::size_t kN = 97;
  auto run = [&](std::size_t lanes) {
    ThreadPool pool(lanes);
    std::vector<double> cost(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      cost[i] = static_cast<double>(1 + (i * 13) % 7);
    }
    std::vector<double> out(kN, 0.0);
    pool.parallel_for_weighted(cost, [&](std::size_t i) {
      Rng rng(derive_seed(404, {0xD7, i}));
      double acc = 0.0;
      for (int k = 0; k < 32; ++k) acc += rng.uniform() * (k + 1);
      out[i] = acc;
    });
    double sum = 0.0;
    for (const double v : out) sum += v;  // index order on the caller
    return std::pair(out, sum);
  };
  const auto [base_out, base_sum] = run(1);
  for (const std::size_t lanes : {2, 8, 13, 16}) {
    const auto [out, sum] = run(static_cast<std::size_t>(lanes));
    ASSERT_EQ(out, base_out) << "lanes " << lanes;
    ASSERT_EQ(sum, base_sum) << "lanes " << lanes;
  }
}

TEST(Determinism, FleetEngineTrajectoryIsLaneCountInvariant) {
  // The sharded fleet engine follows the same protocol at fleet scale:
  // per-(round, shard) streams, shard-owned writes, caller-side fold in
  // shard order. clamp_lanes = false forces the raw lane counts so 8 and
  // 13 are true oversubscription even on a small machine.
  auto run = [](std::size_t lanes) {
    FleetEngineParams params;
    params.num_shards = 11;
    params.num_threads = lanes;
    params.clamp_lanes = false;
    params.seed = 905;
    ShardedFleetEngine engine(params);
    core::SyntheticFleetSource source(4000, 8, 905);
    engine.ingest(source);
    std::vector<FleetRoundStats> stats;
    std::vector<std::uint64_t> hashes;
    FleetRoundStats round;
    for (std::size_t r = 0; r < kRounds; ++r) {
      engine.run_round_into(0.6, round);
      stats.push_back(round);
      hashes.push_back(engine.state_hash());
    }
    return std::pair(stats, hashes);
  };
  const auto [base_stats, base_hashes] = run(1);
  for (const std::size_t lanes : kThreadCounts) {
    const auto [stats, hashes] = run(lanes);
    ASSERT_EQ(hashes, base_hashes) << "lanes " << lanes;
    for (std::size_t r = 0; r < base_stats.size(); ++r) {
      ASSERT_EQ(stats[r].mean_utility, base_stats[r].mean_utility)
          << "lanes " << lanes << " round " << r;
      ASSERT_EQ(stats[r].mean_privacy, base_stats[r].mean_privacy)
          << "lanes " << lanes << " round " << r;
      ASSERT_EQ(stats[r].exposed_privacy, base_stats[r].exposed_privacy)
          << "lanes " << lanes << " round " << r;
      ASSERT_EQ(stats[r].mean_fitness, base_stats[r].mean_fitness)
          << "lanes " << lanes << " round " << r;
      ASSERT_EQ(stats[r].deliveries, base_stats[r].deliveries)
          << "lanes " << lanes << " round " << r;
      ASSERT_EQ(stats[r].decision_share, base_stats[r].decision_share)
          << "lanes " << lanes << " round " << r;
    }
  }
}

TEST(Determinism, FleetEngineIsIngestBatchSizeInvariant) {
  // Streaming ingestion must be a pure routing step: the same source
  // consumed in different batch sizes (and across repeated ingest calls)
  // yields bit-identical trajectories.
  auto run = [](std::size_t batch) {
    FleetEngineParams params;
    params.num_shards = 5;
    params.seed = 331;
    params.ingest_batch = batch;
    ShardedFleetEngine engine(params);
    core::SyntheticFleetSource source(3000, 8, 331);
    engine.ingest(source);
    std::vector<std::uint64_t> hashes;
    FleetRoundStats round;
    for (std::size_t r = 0; r < 6; ++r) {
      engine.run_round_into(0.7, round);
      hashes.push_back(engine.state_hash());
    }
    return hashes;
  };
  const auto baseline = run(3000);
  EXPECT_EQ(run(1), baseline);       // one seed per pull
  EXPECT_EQ(run(7), baseline);       // batch not dividing the count
  EXPECT_EQ(run(100000), baseline);  // single oversized pull
}

TEST(Determinism, HardwareThreadCountMatchesSerial) {
  // num_threads = 0 resolves to hardware concurrency — whatever that is on
  // the machine running the tests, the trajectory must not move.
  SystemParams params;
  params.vehicles_per_region = 30;
  params.seed = 41;
  const auto baseline = run_system(params, 1, nullptr, nullptr, false);
  const auto run = run_system(params, 0, nullptr, nullptr, false);
  for (std::size_t r = 0; r < baseline.size(); ++r) {
    expect_reports_identical(baseline[r], run[r], 0, r);
  }
}

}  // namespace
}  // namespace avcp::system
