// Workload `fleet`: ShardedFleetEngine at about 50k vehicles in 16 shards,
// the class-aggregated kernel, a fixed sharing ratio and no inter-shard
// exchange. The arm where kernel, RNG and contract work shows and a System
// scene-sampler change must not: most of a round is the data-plane kernel
// over the shard scenes, and there is no controller, checkpoint or
// transport on the path.
#include <cmath>
#include <memory>
#include <string>

#include "common.h"
#include "common/rng.h"
#include "core/fleet_stream.h"
#include "perception/data_plane.h"
#include "system/fleet_engine.h"

namespace perfbench {

using namespace avcp;

namespace {

constexpr std::size_t kVehicles = 50000;
constexpr std::size_t kDecisions = 8;  // 3-sensor lattice
constexpr double kRatio = 0.6;
/// Rounds (the set-up's arena-sizing round included) before the crash point
/// the replay recovery returns to.
constexpr std::size_t kCrashRound = 3;
/// Rounds before the timed window: past the early rounds, which cost about
/// half as much again while imitation is still sorting the decision mix.
constexpr std::size_t kWarmupRounds = 100;
constexpr std::size_t kSetupReps = 31;
constexpr double kNominalRoundsPerSecond = 25.0;
constexpr std::size_t kRestoreReps = 5;
constexpr std::size_t kTracedSetupReps = 3;

system::FleetEngineParams make_params(std::uint64_t seed) {
  system::FleetEngineParams p;
  p.num_shards = 16;
  p.seed = derive_seed(seed, {0xF1EE7});
  p.num_threads = 1;
  return p;
}

std::uint64_t source_seed(std::uint64_t seed) {
  return derive_seed(seed, {0x50C});
}

/// FleetSource decorator: every pull inside a "core.source" span.
class TracedSource final : public core::FleetSource {
 public:
  TracedSource(core::FleetSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  std::size_t next_batch(std::span<core::VehicleSeed> out) override {
    Scope span(&tracer_, "core.source", -1);
    return inner_.next_batch(out);
  }

 private:
  core::FleetSource& inner_;
  Tracer& tracer_;
};

/// Engine + streaming ingest + the first round (which sizes the arenas).
std::unique_ptr<system::ShardedFleetEngine> build(std::uint64_t seed,
                                                  system::FleetRoundStats& out,
                                                  Tracer* tracer) {
  auto engine = std::make_unique<system::ShardedFleetEngine>(make_params(seed));
  core::SyntheticFleetSource source(kVehicles, kDecisions, source_seed(seed));
  if (tracer != nullptr) {
    TracedSource traced(source, *tracer);
    Scope span(tracer, "system.ingest", -1);
    engine->ingest(traced);
  } else {
    engine->ingest(source);
  }
  Scope span(tracer, "system.warmup_round", -1);
  engine->run_round_into(kRatio, out);
  return engine;
}

class RoundChecker {
 public:
  explicit RoundChecker(Result& r) : r_(r) {}

  void operator()(const system::FleetRoundStats& s) {
    double sum = 0.0;
    bool ok = s.vehicles == kVehicles &&
              s.decision_share.size() == kDecisions &&
              std::isfinite(s.mean_utility) && ratios_ok({&kRatio, 1});
    for (const double p : s.decision_share) {
      ok = ok && p >= 0.0 && p <= 1.0;
      sum += p;
    }
    ok = ok && std::abs(sum - 1.0) <= 1e-9;
    r_.check(ok, "round " + std::to_string(digest_.rounds()) +
                     ": vehicle count changed or decision shares are not a "
                     "distribution");
    digest_.add_round(kRatio, s.decision_share);
  }

  const TrajectoryDigest& digest() const { return digest_; }

 private:
  Result& r_;
  TrajectoryDigest digest_;
};

Result untraced(const Options& o) {
  Result r;
  SpeedReference speed(kMemoryTick);
  RoundChecker checker(r);
  system::FleetRoundStats stats;
  std::vector<Timed> setup;
  auto set_up = [&](system::FleetRoundStats& s) {
    Timed t;
    t.start = now_s();
    auto engine = build(o.seed, s, nullptr);
    t.end = now_s();
    setup.push_back(t);
    return engine;
  };
  auto live = set_up(stats);
  speed.probe();
  checker(stats);
  std::uint64_t reference = 0;  // state after the first round past the crash
  for (std::size_t done = 1; done < kWarmupRounds; ++done) {
    live->run_round_into(kRatio, stats);
    checker(stats);
    if (done == kCrashRound) reference = live->state_hash();
    speed.maybe_probe();
  }

  std::vector<Timed> recovery;
  const RoundTimes times = run_sliced(
      speed, timed_rounds(o.seconds, kNominalRoundsPerSecond),
      kCapFactor * o.seconds, kSetupReps - 1, kRestoreReps,
      [&] {
        live->run_round_into(kRatio, stats);
        return stats.vehicles;
      },
      [&] { checker(stats); },
      [&] {
        system::FleetRoundStats s;
        set_up(s);
      },
      [&] {
        // ShardedFleetEngine has no save/load, so the way back to the
        // crashed state is a replay: rebuild, re-ingest, re-run the rounds
        // before the crash point, then serve the next round.
        Timed t;
        t.start = now_s();
        system::FleetRoundStats s;
        auto engine = build(o.seed, s, nullptr);
        for (std::size_t done = 1; done < kCrashRound; ++done) {
          engine->run_round_into(kRatio, s);
        }
        engine->run_round_into(kRatio, s);  // the first round past the crash
        t.end = now_s();
        recovery.push_back(t);
        r.check(engine->state_hash() == reference,
                "replay recovery " + std::to_string(recovery.size()) +
                    " diverged");
      });
  report_run(r, speed, times, setup, recovery);
  r.digest = checker.digest().prefix();
  return r;
}

/// Replays the aggregated kernel on the shard scenes the engine just ran
/// (shard_fleet(s) holds the last round's scene), over a universe of the
/// engine's shape.
class KernelReplay {
 public:
  explicit KernelReplay(std::uint64_t seed)
      : lattice_(3),
        universe_(make_universe(seed)),
        plane_(lattice_, universe_, core::AccessRule::kSubsetOrEqual,
               derive_seed(seed, {0x4B52})) {}

  std::size_t run(Tracer& tracer, long round,
                  const system::ShardedFleetEngine& engine) {
    std::size_t deliveries = 0;
    for (std::size_t s = 0; s < engine.num_shards(); ++s) {
      {
        Scope span(&tracer, "perception.kernel", round);
        plane_.run_round_into(engine.shard_fleet(s).view(), kRatio, no_faults_,
                              no_items_,
                              perception::DataPlaneMode::kClassAggregated,
                              outcome_);
      }
      deliveries += outcome_.deliveries;
    }
    return deliveries;
  }

 private:
  static perception::DataUniverse make_universe(std::uint64_t seed) {
    const system::FleetEngineParams p = make_params(seed);
    std::vector<double> privacy(p.num_sensors);
    for (std::size_t s = 0; s < p.num_sensors; ++s) {
      privacy[s] = 1.0 / static_cast<double>(s + 1);
    }
    Rng rng(derive_seed(seed, {0x0E6A}));
    return perception::DataUniverse::synthetic(
        p.num_sensors, p.items_per_sensor, privacy, rng);
  }

  core::DecisionLattice lattice_;
  perception::DataUniverse universe_;
  perception::EdgeServerDataPlane plane_;
  perception::RoundOutcome outcome_;
  perception::CellFaultMask no_faults_;
  perception::ItemSet no_items_;
};

Result traced(const Options& o) {
  Result r;
  Tracer tracer;
  system::FleetRoundStats stats_a, stats_b;
  std::unique_ptr<system::ShardedFleetEngine> b;
  for (std::size_t rep = 0; rep < kTracedSetupReps; ++rep) {
    b.reset();
    b = build(o.seed, stats_b, &tracer);
  }
  auto a = build(o.seed, stats_a, nullptr);
  RoundChecker check_a(r), check_b(r);
  check_a(stats_a);
  check_b(stats_b);

  KernelReplay replay(o.seed);
  std::size_t deliveries = 0;
  std::uint64_t allocs = 0;
  std::vector<double> ta, tb;
  long round = 1;  // round 0 ran inside the set-up
  auto step = [&](bool timed) {
    double t0 = now_s();
    a->run_round_into(kRatio, stats_a);
    const double da = now_s() - t0;

    const std::uint64_t before = allocations();
    count_allocations(true);
    t0 = now_s();
    {
      Scope span(&tracer, "system.round", round);
      b->run_round_into(kRatio, stats_b);
    }
    const double db = now_s() - t0;
    count_allocations(false);
    const std::size_t d = replay.run(tracer, round, *b);
    if (round < static_cast<long>(kCountRounds)) {
      allocs += allocations() - before;
      deliveries += d;
    }
    check_a(stats_a);
    check_b(stats_b);
    if (timed) {
      ta.push_back(da);
      tb.push_back(db);
    }
    ++round;
  };
  for (std::size_t done = 1; done < kWarmupRounds; ++done) step(false);
  const std::size_t rounds = traced_rounds(o.seconds, kNominalRoundsPerSecond);
  while (tb.size() < rounds || check_b.digest().rounds() < kCountRounds) {
    step(true);
  }
  r.require(check_a.digest() == check_b.digest() &&
                a->state_hash() == b->state_hash(),
            "trajectory digest differs with tracing on");

  using M = Tracer::Measure;
  const long first = static_cast<long>(kWarmupRounds);
  // Per set-up: the ingest span's self time, and its children (the source
  // pulls) as the source time.
  const auto ingest = tracer.each("system.ingest", M::kSelf);
  const auto ingest_total = tracer.each("system.ingest", M::kTotal);
  std::vector<double> source(ingest.size());
  for (std::size_t i = 0; i < ingest.size(); ++i) {
    source[i] = ingest_total[i] - ingest[i];
  }
  r.set("system.ingest_ms", median_ms(ingest), "ms", ingest.size());
  r.set("core.source_ms", median_ms(source), "ms", ingest.size());
  r.set("system.warmup_round_ms",
        median_ms(tracer.each("system.warmup_round", M::kTotal)), "ms",
        kTracedSetupReps);
  r.set("system.round_ms",
        median_ms(tracer.by_round("system.round", M::kTotal, first)), "ms",
        rounds);
  r.set("system.self_ms",
        median_ms(tracer.by_round("system.round", M::kSelf, first)),
        "ms", rounds);
  r.set("perception.kernel_ms",
        median_ms(tracer.by_round("perception.kernel", M::kTotal, first)), "ms",
        rounds);
  r.set("perception.deliveries", double(deliveries), "count",
        kCountRounds - 1);
  r.set("common.allocs_per_round", double(allocs) / double(kCountRounds - 1),
        "count", kCountRounds - 1);
  r.set("bench.tracing_overhead_ms", 1e3 * (median(tb) - median(ta)), "ms",
        tb.size());
  r.digest = check_b.digest().prefix();
  tracer.write_json(spans_path(o));
  return r;
}

}  // namespace

Result run_fleet(const Options& o) {
  return o.trace ? traced(o) : untraced(o);
}

}  // namespace perfbench
