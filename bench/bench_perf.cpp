// Micro-benchmarks for the core computational kernels: replicator rounds,
// the FDS feasible-set solver, Brandes betweenness, Algorithm-1
// clustering, the edge-server data plane, trace generation, the SIMD
// kernels, and thread-pool dispatch. Cases self-register through the
// BENCHMARK macro (bench_registry.h, MathGeoLib-TestRunner style) with
// per-case trial control, so every future PR's case is timed
// automatically:
//
//   ./build/bench/bench_perf                     # run every registered case
//   ./build/bench/bench_perf --filter DataPlane  # substring filter
//
// Besides the registered suite, the binary has a scaling mode for the
// parallel round engine:
//
//   ./build/bench/bench_perf --scaling   # 100-region round loop at
//                                        # 1/2/4/8 threads, JSON on stdout
//   ./build/bench/bench_perf --smoke     # tiny CI configuration
//
// and a data-plane kernel sweep (pairwise-exact vs class-aggregated over
// vehicle counts, a system-level mode x threads table, and a best-of-N
// thread-scaling section whose acceptance is monotone non-negative
// scaling of aggregated rounds/s with bit-identical trajectories):
//
//   ./build/bench/bench_perf --dataplane           # full sweep
//   ./build/bench/bench_perf --dataplane --smoke   # CI configuration
//
// CI stores the --dataplane JSON as BENCH_dataplane.json, the repo's
// recorded perf baseline, and gates on (a) the aggregated kernel staying
// at least 5x faster than pairwise at the smoke point and (b) 8-thread
// aggregated rounds/s >= 1-thread (the thread-scaling regression gate).
//
// Scaling modes re-run the identical seeded workload per thread count,
// report wall-clock speedup curves, and verify the determinism contract:
// every trajectory must be bit-identical to the single-threaded run (the
// process exits non-zero otherwise). Speedups depend on the machine's
// cores; bit-identity must hold everywhere.
#include <chrono>
#include <cstring>

#include "bench_common.h"
#include "bench_registry.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/fds.h"
#include "system/system.h"
#include "core/lower_bound.h"
#include "core/rate_model.h"
#include "core/sensor_model.h"
#include "perception/data_plane.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"
#include "spatial/grid_index.h"
#include "trace/generator.h"

namespace {

using namespace avcp;

core::MultiRegionGame make_chain(std::size_t regions) {
  core::GameConfig config;
  config.lattice = core::DecisionLattice(3);
  const auto tables = core::paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = 0.5;
  std::vector<core::RegionSpec> specs(regions);
  for (std::size_t i = 0; i < regions; ++i) {
    specs[i].beta = 2.5;
    specs[i].gamma_self = 1.0;
    if (i > 0) specs[i].neighbors.emplace_back(i - 1, 0.3);
    if (i + 1 < regions) specs[i].neighbors.emplace_back(i + 1, 0.3);
  }
  return core::MultiRegionGame(std::move(config), std::move(specs));
}

void BM_ReplicatorStep(bench::State& state) {
  const auto game = make_chain(static_cast<std::size_t>(state.range(0)));
  auto game_state = game.uniform_state();
  const std::vector<double> x(game.num_regions(), 0.5);
  for ([[maybe_unused]] auto _ : state) {
    game.replicator_step(game_state, x);
    bench::DoNotOptimize(game_state);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(game.num_regions()));
}
BENCHMARK(BM_ReplicatorStep)->Arg(4)->Arg(20)->Arg(100);

void BM_RateFamily(bench::State& state) {
  const auto game = make_chain(20);
  const auto game_state = game.uniform_state();
  const std::vector<double> x(20, 0.5);
  for ([[maybe_unused]] auto _ : state) {
    for (core::DecisionId k = 0; k < 8; ++k) {
      bench::DoNotOptimize(
          core::rate_family(game, game_state, x, 10, k));
    }
  }
}
BENCHMARK(BM_RateFamily);

void BM_FdsRound(bench::State& state) {
  const auto game = make_chain(static_cast<std::size_t>(state.range(0)));
  core::DesiredFields fields(game.num_regions(), 8);
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.9, 1.0});
  }
  core::FdsController controller(game, fields);
  const auto game_state = game.uniform_state();
  std::vector<double> x(game.num_regions(), 0.5);
  for ([[maybe_unused]] auto _ : state) {
    bench::DoNotOptimize(controller.next_x(game_state, x));
  }
}
BENCHMARK(BM_FdsRound)->Arg(4)->Arg(20);

void BM_LowerBound(bench::State& state) {
  const auto game = make_chain(20);
  core::DesiredFields fields(20, 8);
  for (core::RegionId i = 0; i < 20; ++i) {
    fields.set_target(i, 0, Interval{0.9, 1.0});
  }
  const auto game_state = game.uniform_state();
  const std::vector<double> x(20, 0.2);
  for ([[maybe_unused]] auto _ : state) {
    bench::DoNotOptimize(
        core::convergence_lower_bound(game, game_state, fields, x));
  }
}
BENCHMARK(BM_LowerBound);

void brandes_case(bench::State& state, roadnet::PathMetric metric) {
  roadnet::CityParams params;
  params.rows = static_cast<std::uint32_t>(state.range(0));
  params.cols = static_cast<std::uint32_t>(state.range(0));
  const auto graph = roadnet::build_city(params);
  roadnet::BetweennessOptions opts;
  opts.metric = metric;
  opts.num_threads = static_cast<std::size_t>(state.range(1));
  for ([[maybe_unused]] auto _ : state) {
    bench::DoNotOptimize(roadnet::segment_betweenness(graph, opts));
  }
  state.SetLabel(std::to_string(graph.num_segments()) + " segments, " +
                 std::to_string(state.range(1)) + " threads");
}

// Hop count: the BFS pass the set-up clustering runs.
void BM_BrandesBetweenness(bench::State& state) {
  brandes_case(state, roadnet::PathMetric::kHops);
}
BENCHMARK(BM_BrandesBetweenness)
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 8});

// Travel time: the Dijkstra pass the service layer's re-clustering pays
// for every epoch.
void BM_BrandesBetweennessTravelTime(bench::State& state) {
  brandes_case(state, roadnet::PathMetric::kTravelTime);
}
BENCHMARK(BM_BrandesBetweennessTravelTime)->Args({8, 1})->Args({16, 1});

void BM_Clustering(bench::State& state) {
  roadnet::CityParams params;
  params.rows = 16;
  params.cols = 16;
  const auto graph = roadnet::build_city(params);
  const auto coeffs = roadnet::segment_betweenness(graph);
  for ([[maybe_unused]] auto _ : state) {
    bench::DoNotOptimize(
        cluster::cluster_segments(graph, coeffs, {20}));
  }
}
BENCHMARK(BM_Clustering);

/// `n` vehicles over the 8-decision lattice: a uniform decision, then one
/// collect (0.3) and one desire (0.2) draw per item, interleaved.
perception::FleetSoA make_plane_fleet(const perception::DataUniverse& universe,
                                      std::size_t n, Rng& rng) {
  perception::FleetSoA fleet;
  perception::ItemSet collected;
  perception::ItemSet desired;
  for (std::size_t v = 0; v < n; ++v) {
    const auto decision = static_cast<core::DecisionId>(rng.uniform_int(0, 7));
    collected.clear();
    desired.clear();
    for (perception::ItemId id = 0; id < universe.size(); ++id) {
      if (rng.bernoulli(0.3)) collected.push_back(id);
      if (rng.bernoulli(0.2)) desired.push_back(id);
    }
    if (desired.empty()) desired.push_back(0);
    fleet.add(decision, perception::kClaimFollowsDecision, false, collected,
              desired);
  }
  return fleet;
}

void BM_DataPlaneRound(bench::State& state) {
  const core::DecisionLattice lattice(3);
  Rng rng(5);
  const std::vector<double> privacy = {1.0, 0.5, 0.1};
  const auto universe =
      perception::DataUniverse::synthetic(3, 30, privacy, rng);
  perception::EdgeServerDataPlane plane(lattice, universe);

  const auto n = static_cast<std::size_t>(state.range(0));
  const perception::FleetSoA vehicles = make_plane_fleet(universe, n, rng);
  for ([[maybe_unused]] auto _ : state) {
    perception::RoundOutcome out;
    plane.run_round_into(vehicles.view(), 0.5, {}, {},
                         perception::DataPlaneMode::kPairwiseExact, out);
    bench::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DataPlaneRound)->Arg(20)->Arg(100);

void BM_TraceGeneration(bench::State& state) {
  roadnet::CityParams city;
  city.rows = 10;
  city.cols = 12;
  const auto graph = roadnet::build_city(city);
  trace::TraceParams params;
  params.num_vehicles = 50;
  params.duration_s = 1800.0;
  const trace::TraceGenerator generator(graph, params);
  for ([[maybe_unused]] auto _ : state) {
    std::size_t count = 0;
    generator.generate([&count](const trace::GpsFix&) { ++count; });
    bench::DoNotOptimize(count);
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_GridIndexNearest(bench::State& state) {
  Rng rng(9);
  std::vector<PointM> points(10000);
  for (auto& p : points) {
    p = PointM{rng.uniform(0.0, 10000.0), rng.uniform(0.0, 10000.0)};
  }
  const spatial::GridIndex index(points);
  for ([[maybe_unused]] auto _ : state) {
    const PointM q{rng.uniform(0.0, 10000.0), rng.uniform(0.0, 10000.0)};
    bench::DoNotOptimize(index.nearest(q));
  }
}
BENCHMARK(BM_GridIndexNearest);

void BM_SimdGrowthUpdate(bench::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> p(n), q(n), row(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = rng.uniform(0.0, 1.0);
    q[i] = rng.uniform(-1.0, 1.0);
  }
  for ([[maybe_unused]] auto _ : state) {
    simd::growth_update(row.data(), p.data(), q.data(), 0.1, 0.5, 0.01, n);
    bench::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(simd::active_isa());
}
BENCHMARK(BM_SimdGrowthUpdate)->Arg(8)->Arg(1024)->Trials(5);

void BM_SimdAddU32(bench::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> dst(n, 1), src(n, 2);
  for ([[maybe_unused]] auto _ : state) {
    simd::add_u32(dst.data(), src.data(), n);
    bench::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(simd::active_isa());
}
BENCHMARK(BM_SimdAddU32)->Arg(90)->Arg(4096)->Trials(5);

// Round-trip cost of one dispatch over trivial work — the fork/join
// overhead the chunked pool exists to shrink. The single-stage case goes
// through parallel_for; the batched case crosses the pool boundary once
// for three stages.
void BM_PoolDispatch(bench::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<double> out(n, 0.0);
  for ([[maybe_unused]] auto _ : state) {
    pool.parallel_for(0, n, [&](std::size_t i) { out[i] += 1.0; });
    bench::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PoolDispatch)->Args({1, 100})->Args({4, 100})->Args({8, 100})
    ->Trials(5);

void BM_PoolBatch3(bench::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<double> out(n, 0.0);
  auto task = [&](std::size_t i) { out[i] += 1.0; };
  const ThreadPool::Stage stages[] = {
      {n, IndexFnRef(task), 0, {}},
      {n, IndexFnRef(task), 0, {}},
      {n, IndexFnRef(task), 0, {}},
  };
  for ([[maybe_unused]] auto _ : state) {
    pool.run_batch(stages);
    bench::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(3 * n));
}
BENCHMARK(BM_PoolBatch3)->Args({4, 100})->Args({8, 100})->Trials(5);

// ---------------------------------------------------------------------------
// --scaling / --smoke: round-engine thread-scaling suite.

struct ScalingConfig {
  std::size_t regions = 100;
  std::size_t vehicles_per_region = 40;
  std::size_t rounds = 15;
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
};

struct Trajectory {
  std::vector<std::vector<double>> x;                  // per round
  std::vector<std::vector<std::vector<double>>> p;     // per round
  double seconds = 0.0;
};

Trajectory run_round_loop(const core::MultiRegionGame& game,
                          const ScalingConfig& config, std::size_t threads,
                          perception::DataPlaneMode mode =
                              perception::DataPlaneMode::kPairwiseExact) {
  system::SystemParams params;
  params.vehicles_per_region = config.vehicles_per_region;
  params.seed = 2022;
  params.num_threads = threads;
  params.data_plane_mode = mode;
  system::CooperativePerceptionSystem sys(game, params);
  sys.init_from(game.uniform_state());

  core::DesiredFields fields(game.num_regions(), 8);
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.6, 1.0});
  }
  core::FdsController controller(game, fields);

  Trajectory out;
  out.x.reserve(config.rounds);
  out.p.reserve(config.rounds);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < config.rounds; ++r) {
    auto report = sys.run_round(controller);
    out.x.push_back(std::move(report.x));
    out.p.push_back(std::move(report.state.p));
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

int run_scaling(bool smoke) {
  ScalingConfig config;
  if (smoke) {
    config.regions = 8;
    config.vehicles_per_region = 20;
    config.rounds = 4;
    config.thread_counts = {1, 2};
  }
  const auto game = make_chain(config.regions);

  std::vector<Trajectory> runs;
  runs.reserve(config.thread_counts.size());
  for (const std::size_t threads : config.thread_counts) {
    runs.push_back(run_round_loop(game, config, threads));
  }

  bool bit_identical = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].x != runs[0].x || runs[i].p != runs[0].p) {
      bit_identical = false;
    }
  }

  const double base = runs[0].seconds;
  std::printf("{\n");
  std::printf("  \"bench\": \"round_engine_scaling\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"regions\": %zu,\n", config.regions);
  std::printf("  \"vehicles_per_region\": %zu,\n", config.vehicles_per_region);
  std::printf("  \"rounds\": %zu,\n", config.rounds);
  std::printf("  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf(
        "    {\"threads\": %zu, \"seconds\": %.6f, \"rounds_per_s\": %.3f, "
        "\"speedup\": %.3f}%s\n",
        config.thread_counts[i], runs[i].seconds,
        static_cast<double>(config.rounds) / runs[i].seconds,
        base / runs[i].seconds, i + 1 < runs.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: trajectories differ across thread counts — the "
                 "determinism contract is broken\n");
    return 1;
  }
  return bench::finish_json_output();
}

// ---------------------------------------------------------------------------
// --dataplane [--smoke]: pairwise-exact vs class-aggregated kernel sweep.
// Emits JSON on stdout (CI captures it as BENCH_dataplane.json — the repo's
// recorded perf baseline) and exits non-zero if the aggregated kernel loses
// its thread-count determinism at the system level.

struct KernelTiming {
  std::size_t rounds = 0;
  double seconds = 0.0;
  double mean_utility = 0.0;
  std::size_t deliveries = 0;
};

KernelTiming time_plane_rounds(perception::EdgeServerDataPlane& plane,
                               const perception::FleetView& fleet,
                               double x, perception::DataPlaneMode mode,
                               std::size_t rounds) {
  perception::RoundOutcome out;
  // Warm-up round (untimed): workspace and outcome buffers reach their
  // high-water marks, so the timed loop runs allocation-free.
  plane.run_round_into(fleet, x, {}, {}, mode, out);
  KernelTiming timing;
  timing.rounds = rounds;
  double utility_sum = 0.0;
  std::size_t delivery_sum = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    plane.run_round_into(fleet, x, {}, {}, mode, out);
    utility_sum += out.mean_utility();
    delivery_sum += out.deliveries;
  }
  timing.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  timing.mean_utility = utility_sum / static_cast<double>(rounds);
  timing.deliveries = delivery_sum / rounds;
  return timing;
}

void print_kernel_timing(const char* key, const KernelTiming& t,
                         const char* trailer) {
  std::printf(
      "      \"%s\": {\"rounds\": %zu, \"seconds\": %.6f, "
      "\"round_seconds\": %.6f, \"mean_utility\": %.6f, "
      "\"deliveries_per_round\": %zu}%s\n",
      key, t.rounds, t.seconds, t.seconds / static_cast<double>(t.rounds),
      t.mean_utility, t.deliveries, trailer);
}

int run_dataplane(bool smoke) {
  constexpr double kSharingRatio = 0.5;
  constexpr std::size_t kItemsPerSensor = 30;
  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{10000}
            : std::vector<std::size_t>{200, 1000, 5000, 10000, 20000};

  const core::DecisionLattice lattice(3);
  Rng rng(5);
  const std::vector<double> privacy = {1.0, 0.5, 0.1};
  const auto universe =
      perception::DataUniverse::synthetic(3, kItemsPerSensor, privacy, rng);

  std::printf("{\n");
  std::printf("  \"bench\": \"dataplane_kernels\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"sensors\": 3,\n");
  std::printf("  \"items\": %zu,\n", universe.size());
  std::printf("  \"sharing_ratio\": %.2f,\n", kSharingRatio);
  std::printf("  \"plane\": [\n");
  for (std::size_t fi = 0; fi < fleet_sizes.size(); ++fi) {
    const std::size_t n = fleet_sizes[fi];
    Rng fleet_rng(7 + n);
    const perception::FleetSoA fleet = make_plane_fleet(universe, n, fleet_rng);
    // Pairwise rounds shrink with the fleet (the kernel is quadratic);
    // aggregated rounds stay high for stable timing of a fast kernel.
    const std::size_t pairwise_rounds = n <= 1000 ? 20 : (n <= 5000 ? 4 : 2);
    const std::size_t aggregated_rounds = pairwise_rounds * 25;
    // Identically seeded planes: both kernels see the same fleet and the
    // same upload phase; only the distribution sampling differs.
    perception::EdgeServerDataPlane exact_plane(lattice, universe,
                                                core::AccessRule::kSubsetOrEqual,
                                                11 + n);
    perception::EdgeServerDataPlane agg_plane(lattice, universe,
                                              core::AccessRule::kSubsetOrEqual,
                                              11 + n);
    const auto exact =
        time_plane_rounds(exact_plane, fleet.view(), kSharingRatio,
                          perception::DataPlaneMode::kPairwiseExact,
                          pairwise_rounds);
    const auto agg =
        time_plane_rounds(agg_plane, fleet.view(), kSharingRatio,
                          perception::DataPlaneMode::kClassAggregated,
                          aggregated_rounds);
    const double speedup =
        (exact.seconds / static_cast<double>(exact.rounds)) /
        (agg.seconds / static_cast<double>(agg.rounds));
    std::printf("    {\n");
    std::printf("      \"vehicles\": %zu,\n", n);
    print_kernel_timing("pairwise", exact, ",");
    print_kernel_timing("aggregated", agg, ",");
    std::printf("      \"speedup\": %.2f\n", speedup);
    std::printf("    }%s\n", fi + 1 < fleet_sizes.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Thread-scaling regression section (both modes, so CI can gate on it):
  // the aggregated-kernel system loop at 1/2/8 threads, best of N trials
  // per count to de-noise shared CI machines. Acceptance is monotone
  // non-decreasing rounds/s — the scaling bug this section guards against
  // was parallelism being a net *loss* (157 -> 120 rounds/s) because the
  // old pool's join waited for every worker to schedule.
  bool scaling_monotone = true;
  bool scaling_identical = true;
  {
    ScalingConfig config;
    config.regions = 8;
    config.vehicles_per_region = 120;
    // Same measurement budget in smoke and full mode: the section's whole
    // cost is ~1s, and shrinking the timed region below ~60ms doubles the
    // relative scheduler jitter the acceptance must absorb.
    config.rounds = 12;
    config.thread_counts = {1, 2, 8};
    const std::size_t trials = 5;
    const auto game = make_chain(config.regions);
    std::vector<double> best_seconds(config.thread_counts.size(), 0.0);
    std::vector<Trajectory> reference;
    // Trials are interleaved round-robin across thread counts rather
    // than run back-to-back per count: on shared hosts steal-time comes
    // in bursts lasting longer than one trial, and a burst that lands on
    // a single count's whole trial block would skew its best-of estimate
    // against the others. Interleaving makes every count's best sample
    // the same set of time windows.
    for (std::size_t trial = 0; trial < trials; ++trial) {
      for (std::size_t ti = 0; ti < config.thread_counts.size(); ++ti) {
        auto run = run_round_loop(game, config, config.thread_counts[ti],
                                  perception::DataPlaneMode::kClassAggregated);
        if (trial == 0 || run.seconds < best_seconds[ti]) {
          best_seconds[ti] = run.seconds;
        }
        if (ti == 0 && trial == 0) {
          reference.push_back(std::move(run));
        } else if (run.x != reference[0].x || run.p != reference[0].p) {
          scaling_identical = false;
        }
      }
    }
    std::printf("  \"thread_scaling\": {\n");
    std::printf("    \"mode\": \"aggregated\",\n");
    std::printf("    \"trials\": %zu,\n", trials);
    std::printf("    \"rounds\": %zu,\n", config.rounds);
    std::printf("    \"bit_identical\": %s,\n",
                scaling_identical ? "true" : "false");
    std::printf("    \"points\": [\n");
    // Non-decreasing scaling, measured against the 1-thread anchor: every
    // multi-thread point must hold the serial rate to within a small
    // jitter allowance. The regression signature is "more threads run
    // *slower than serial*" (157 -> 120 rounds/s, -24%); comparing
    // consecutive pairs instead would compound per-point noise — on a
    // machine whose core count is below the requested thread counts the
    // engine clamps every point onto the identical code path, and
    // steal-time on shared hosts spreads even best-of-trials rates of
    // identical code paths by ~5% in either direction. The allowance
    // still catches the -24% regression with 5x margin.
    constexpr double kNoiseTolerance = 0.05;
    const double base_rate =
        static_cast<double>(config.rounds) / best_seconds[0];
    for (std::size_t ti = 0; ti < config.thread_counts.size(); ++ti) {
      const double rate =
          static_cast<double>(config.rounds) / best_seconds[ti];
      if (rate < base_rate * (1.0 - kNoiseTolerance)) {
        scaling_monotone = false;
      }
      std::printf(
          "      {\"threads\": %zu, \"best_seconds\": %.6f, "
          "\"rounds_per_s\": %.3f, \"bit_identical\": %s}%s\n",
          config.thread_counts[ti], best_seconds[ti], rate,
          scaling_identical ? "true" : "false",
          ti + 1 < config.thread_counts.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"monotone_non_decreasing\": %s\n",
                scaling_monotone ? "true" : "false");
    std::printf("  }%s\n", smoke ? "" : ",");
  }

  bool aggregated_deterministic = true;
  if (!smoke) {
    // System-level mode x threads table: full FDS rounds through
    // system.cpp's wiring, checking both kernels hold the thread-count
    // determinism contract end to end.
    ScalingConfig config;
    config.regions = 8;
    config.vehicles_per_region = 120;
    config.rounds = 6;
    config.thread_counts = {1, 2, 8};
    const auto game = make_chain(config.regions);
    std::printf("  \"system\": [\n");
    const perception::DataPlaneMode modes[] = {
        perception::DataPlaneMode::kPairwiseExact,
        perception::DataPlaneMode::kClassAggregated};
    for (std::size_t mi = 0; mi < 2; ++mi) {
      std::vector<Trajectory> runs;
      for (const std::size_t threads : config.thread_counts) {
        runs.push_back(run_round_loop(game, config, threads, modes[mi]));
      }
      bool bit_identical = true;
      for (std::size_t i = 1; i < runs.size(); ++i) {
        if (runs[i].x != runs[0].x || runs[i].p != runs[0].p) {
          bit_identical = false;
        }
      }
      if (mi == 1 && !bit_identical) aggregated_deterministic = false;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        std::printf(
            "    {\"mode\": \"%s\", \"threads\": %zu, \"seconds\": %.6f, "
            "\"rounds_per_s\": %.3f, \"bit_identical\": %s}%s\n",
            mi == 0 ? "pairwise" : "aggregated", config.thread_counts[i],
            runs[i].seconds,
            static_cast<double>(config.rounds) / runs[i].seconds,
            bit_identical ? "true" : "false",
            mi == 1 && i + 1 == runs.size() ? "" : ",");
      }
    }
    std::printf("  ]\n");
  }
  std::printf("}\n");
  if (!aggregated_deterministic || !scaling_identical) {
    std::fprintf(stderr,
                 "FAIL: aggregated-mode trajectories differ across thread "
                 "counts — the determinism contract is broken\n");
    return 1;
  }
  if (!scaling_monotone) {
    std::fprintf(stderr,
                 "FAIL: aggregated rounds/s decreased with more threads — "
                 "the thread-scaling regression is back\n");
    return 1;
  }
  return bench::finish_json_output();
}

}  // namespace

int main(int argc, char** argv) {
  bool dataplane = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dataplane") == 0) dataplane = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (dataplane) return run_dataplane(smoke);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) return run_scaling(false);
    if (std::strcmp(argv[i], "--smoke") == 0) return run_scaling(true);
  }
  const char* filter = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[i + 1];
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf [--filter SUBSTR] | --scaling | "
                   "--smoke | --dataplane [--smoke]\n");
      return 1;
    }
  }
  return bench::run_registered_benchmarks(filter);
}
