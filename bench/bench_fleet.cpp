// Fleet-scale engine bench: the million-vehicle sharded SoA engine
// (system/fleet_engine.h) against a naive per-round idiom over the same
// data plane, with the memory footprint and the bit-identity contract
// measured alongside throughput. JSON on stdout (CI stores it as
// BENCH_fleet.json):
//
//   ./build/bench/bench_fleet            # 100k / 500k / 1M sweep
//   ./build/bench/bench_fleet --smoke    # 100k only (CI configuration)
//
// Three sections:
//
//   reference  a naive round at 100k vehicles — a fresh FleetSoA per
//              round grown from empty, per-item Bernoulli scene sampling
//              (~2Ω draws per vehicle) into two round-scoped ItemSets
//              copied in per vehicle, and a round-local RoundOutcome —
//              the honest denominator for the speedup gate;
//   sweep      ShardedFleetEngine at each scale: streaming ingest
//              seconds, rounds/s over timed steady-state rounds, peak
//              RSS (process-cumulative; points run in ascending scale),
//              and the live-allocation delta across the timed rounds,
//              which must be exactly zero after the warm-up round;
//   identity   the same 100k workload at raw lane counts 1/2/8
//              (clamp_lanes=false), compared by per-round state_hash.
//
// Acceptance (the binary exits non-zero on violation; CI re-checks from
// the JSON): aggregated 100k rounds/s >= 5x the reference, zero
// steady-state allocations at every scale, bit-identical hashes at every
// lane count, and — full sweep only — the 1M-vehicle aggregated round in
// at most 1 second.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/fleet_stream.h"
#include "core/lattice.h"
#include "perception/data_plane.h"
#include "system/fleet_engine.h"

AVCP_BENCH_DEFINE_COUNTING_ALLOCATOR()

using namespace avcp;

namespace {

constexpr std::uint64_t kSeed = 515;
constexpr std::size_t kSensors = 3;
constexpr std::size_t kItemsPerSensor = 128;
constexpr double kSharingRatio = 0.7;
constexpr double kCollectFraction = 0.06;
constexpr double kDesireFraction = 0.03;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

system::FleetEngineParams engine_params(std::size_t threads,
                                        bool clamp_lanes = true) {
  system::FleetEngineParams params;
  params.num_shards = 16;
  params.num_sensors = kSensors;
  params.items_per_sensor = kItemsPerSensor;
  params.collect_fraction = kCollectFraction;
  params.desire_fraction = kDesireFraction;
  params.seed = kSeed;
  params.num_threads = threads;
  params.clamp_lanes = clamp_lanes;
  params.mode = perception::DataPlaneMode::kClassAggregated;
  return params;
}

// ---------------------------------------------------------------------------
// Reference arm: a naive round with none of the engine's reuse. Every
// round grows a fresh fleet from empty, samples the scene with one
// Bernoulli per (vehicle, item, set) and a copy per vehicle, and writes a
// fresh outcome.
// ---------------------------------------------------------------------------
struct ReferenceResult {
  std::size_t vehicles = 0;
  std::size_t rounds = 0;
  double seconds = 0.0;
  double rounds_per_s = 0.0;
  double checksum = 0.0;  // keeps the fold observable
};

ReferenceResult run_reference(std::size_t vehicles, std::size_t rounds) {
  Rng universe_rng(derive_seed(kSeed, {0xE0}));
  std::vector<double> sensor_privacy(kSensors);
  for (std::size_t s = 0; s < kSensors; ++s) {
    sensor_privacy[s] = 1.0 / static_cast<double>(s + 1);
  }
  const auto universe = perception::DataUniverse::synthetic(
      kSensors, kItemsPerSensor, sensor_privacy, universe_rng);
  const core::DecisionLattice lattice(kSensors);
  perception::EdgeServerDataPlane plane(lattice, universe,
                                        core::AccessRule::kSubsetOrEqual,
                                        derive_seed(kSeed, {0xE1, 0}));
  const auto k = static_cast<std::int64_t>(lattice.num_decisions());
  const std::size_t omega = universe.size();
  const double total_privacy = universe.total_privacy_weight();

  ReferenceResult result;
  result.vehicles = vehicles;
  result.rounds = rounds;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng rng(derive_seed(kSeed, {0xE2, r, 0}));
    perception::FleetSoA fleet;
    perception::ItemSet collected;
    perception::ItemSet desired;
    for (std::size_t v = 0; v < vehicles; ++v) {
      const auto decision =
          static_cast<core::DecisionId>(rng.uniform_int(0, k - 1));
      collected.clear();
      desired.clear();
      for (perception::ItemId id = 0; id < omega; ++id) {
        if (rng.bernoulli(kCollectFraction)) collected.push_back(id);
        if (rng.bernoulli(kDesireFraction)) desired.push_back(id);
      }
      if (desired.empty()) desired.push_back(0);
      fleet.add(decision, perception::kClaimFollowsDecision, false, collected,
                desired);
    }
    perception::RoundOutcome outcome;
    plane.run_round_into(fleet.view(), kSharingRatio, {}, {},
                         perception::DataPlaneMode::kClassAggregated, outcome);
    std::vector<double> fitness(vehicles);
    for (std::size_t v = 0; v < vehicles; ++v) {
      const double own_mass = universe.privacy_weight(fleet.collected_of(v));
      const double exposed =
          own_mass > 0.0 ? outcome.privacy[v] * total_privacy / own_mass : 0.0;
      fitness[v] = 2.5 * outcome.utility[v] - exposed;
      result.checksum += fitness[v];
    }
  }
  result.seconds = seconds_since(start);
  result.rounds_per_s =
      static_cast<double>(rounds) / std::max(result.seconds, 1e-12);
  return result;
}

// ---------------------------------------------------------------------------
// SoA sweep point.
// ---------------------------------------------------------------------------
struct SweepPoint {
  std::size_t vehicles = 0;
  std::size_t rounds = 0;
  double ingest_seconds = 0.0;
  double seconds = 0.0;
  double rounds_per_s = 0.0;
  double round_seconds = 0.0;
  std::size_t peak_rss_bytes = 0;
  long long steady_allocations = 0;
  double mean_utility = 0.0;
  double mean_fitness = 0.0;
};

SweepPoint run_soa(std::size_t vehicles, std::size_t rounds) {
  system::ShardedFleetEngine engine(engine_params(/*threads=*/1));
  core::SyntheticFleetSource source(vehicles, /*num_decisions=*/8, kSeed);

  SweepPoint point;
  point.vehicles = vehicles;
  point.rounds = rounds;

  auto start = std::chrono::steady_clock::now();
  engine.ingest(source);
  point.ingest_seconds = seconds_since(start);

  // One warm-up round grows every arena and workspace to its high-water
  // mark; the timed rounds after it must not allocate at all.
  system::FleetRoundStats stats;
  engine.run_round_into(kSharingRatio, stats);
  const long long live_before = bench::live_allocations();

  start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    engine.run_round_into(kSharingRatio, stats);
  }
  point.seconds = seconds_since(start);
  point.steady_allocations = bench::live_allocations() - live_before;
  point.rounds_per_s =
      static_cast<double>(rounds) / std::max(point.seconds, 1e-12);
  point.round_seconds = point.seconds / static_cast<double>(rounds);
  point.peak_rss_bytes = bench::peak_rss_bytes();
  point.mean_utility = stats.mean_utility;
  point.mean_fitness = stats.mean_fitness;
  return point;
}

// ---------------------------------------------------------------------------
// Bit-identity across raw lane counts.
// ---------------------------------------------------------------------------
std::vector<std::uint64_t> hash_trajectory(std::size_t vehicles,
                                           std::size_t rounds,
                                           std::size_t lanes) {
  system::ShardedFleetEngine engine(
      engine_params(lanes, /*clamp_lanes=*/false));
  core::SyntheticFleetSource source(vehicles, 8, kSeed);
  engine.ingest(source);
  system::FleetRoundStats stats;
  std::vector<std::uint64_t> hashes;
  hashes.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    engine.run_round_into(kSharingRatio, stats);
    hashes.push_back(engine.state_hash());
  }
  return hashes;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t ref_vehicles = 100000;
  const std::size_t ref_rounds = smoke ? 1 : 2;
  std::fprintf(stderr, "bench_fleet: reference arm (%zu vehicles)...\n",
               ref_vehicles);
  const ReferenceResult reference = run_reference(ref_vehicles, ref_rounds);

  struct Scale {
    std::size_t vehicles;
    std::size_t rounds;
  };
  std::vector<Scale> scales;
  if (smoke) {
    scales = {{100000, 3}};
  } else {
    scales = {{100000, 5}, {500000, 3}, {1000000, 3}};
  }
  std::vector<SweepPoint> sweep;
  for (const Scale& scale : scales) {
    std::fprintf(stderr, "bench_fleet: SoA sweep at %zu vehicles...\n",
                 scale.vehicles);
    sweep.push_back(run_soa(scale.vehicles, scale.rounds));
  }

  const std::size_t identity_rounds = 4;
  const std::size_t lane_counts[] = {1, 2, 8};
  std::fprintf(stderr, "bench_fleet: lane-count bit-identity...\n");
  const auto baseline =
      hash_trajectory(ref_vehicles, identity_rounds, lane_counts[0]);
  bool bit_identical = true;
  for (std::size_t i = 1; i < std::size(lane_counts); ++i) {
    if (hash_trajectory(ref_vehicles, identity_rounds, lane_counts[i]) !=
        baseline) {
      bit_identical = false;
    }
  }

  const double speedup = sweep.front().rounds_per_s / reference.rounds_per_s;
  bool zero_allocs = true;
  for (const SweepPoint& point : sweep) {
    if (point.steady_allocations != 0) zero_allocs = false;
  }
  const SweepPoint& largest = sweep.back();
  const bool million_ok = smoke || largest.round_seconds <= 1.0;

  std::printf("{\n");
  std::printf("  \"bench\": \"fleet_engine\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"mode\": \"aggregated\",\n");
  std::printf("  \"num_shards\": 16,\n");
  std::printf("  \"sensors\": %zu,\n", kSensors);
  std::printf("  \"items\": %zu,\n", kSensors * kItemsPerSensor);
  std::printf("  \"sharing_ratio\": %.2f,\n", kSharingRatio);
  std::printf(
      "  \"reference\": {\"vehicles\": %zu, \"rounds\": %zu, \"seconds\": "
      "%.6f, \"rounds_per_s\": %.4f, \"checksum\": %.17g},\n",
      reference.vehicles, reference.rounds, reference.seconds,
      reference.rounds_per_s, reference.checksum);
  std::printf("  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::printf(
        "    {\"vehicles\": %zu, \"rounds\": %zu, \"ingest_seconds\": %.6f, "
        "\"seconds\": %.6f, \"round_seconds\": %.6f, \"rounds_per_s\": %.4f, "
        "\"peak_rss_bytes\": %zu, \"steady_allocations\": %lld, "
        "\"mean_utility\": %.6f, \"mean_fitness\": %.6f}%s\n",
        p.vehicles, p.rounds, p.ingest_seconds, p.seconds, p.round_seconds,
        p.rounds_per_s, p.peak_rss_bytes, p.steady_allocations, p.mean_utility,
        p.mean_fitness, i + 1 < sweep.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"speedup_vs_reference\": %.2f,\n", speedup);
  std::printf(
      "  \"bit_identity\": {\"vehicles\": %zu, \"rounds\": %zu, \"lanes\": "
      "[1, 2, 8], \"bit_identical\": %s},\n",
      ref_vehicles, identity_rounds, bit_identical ? "true" : "false");
  std::printf(
      "  \"acceptance\": {\"speedup_gate_5x\": %s, "
      "\"zero_steady_allocations\": %s, \"bit_identical\": %s, "
      "\"largest_round_seconds\": %.6f, \"one_million_under_1s\": %s}\n",
      speedup >= 5.0 ? "true" : "false", zero_allocs ? "true" : "false",
      bit_identical ? "true" : "false", largest.round_seconds,
      million_ok ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr,
               "bench_fleet: speedup=%.2fx zero_allocs=%d bit_identical=%d "
               "largest_round=%.3fs peak_rss_bytes=%zu live_allocations=%lld\n",
               speedup, zero_allocs ? 1 : 0, bit_identical ? 1 : 0,
               largest.round_seconds, bench::peak_rss_bytes(),
               bench::live_allocations());

  const bool ok =
      speedup >= 5.0 && zero_allocs && bit_identical && million_ok;
  const int json_status = avcp::bench::finish_json_output();
  return ok ? json_status : 1;
}
