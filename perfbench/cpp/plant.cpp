// Workloads `plant` and `chaos`: CooperativePerceptionSystem, the paper's
// own round loop, on the streamed paper pipeline.
//
//   plant  clean path, pairwise-exact data-plane kernel. Time goes to scene
//          synthesis, the pairwise kernel and FDS; transport, byzantine and
//          cluster are bypassed.
//   chaos  the same city and system with the class-aggregated kernel, a
//          lossy inter-region transport (drop/delay/duplicate/reorder plus
//          one two-way partition), upload loss and outages, and adaptive
//          threshold-probe attackers against the median + MAD + trust
//          report pipeline. The only workload on System's net and
//          byzantine paths.
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "byzantine/adaptive_adversary.h"
#include "byzantine/report_pipeline.h"
#include "checkpoint/checkpoint.h"
#include "common.h"
#include "common/rng.h"
#include "common/serial.h"
#include "faults/fault_model.h"
#include "perception/data_plane.h"
#include "perception/fleet_soa.h"
#include "system/system.h"

namespace perfbench {

using namespace avcp;

namespace {

constexpr std::size_t kVehiclesPerRegion = 60;
/// Rounds before the checkpoint the restores load (the crash point).
constexpr std::size_t kCrashRound = 5;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kRestoreReps = 25;
constexpr std::size_t kTracedReps = 5;

struct Config {
  bool chaos = false;
  /// Rounds per second on the reference machine (sets the timed count).
  double nominal_rounds_per_s = 100.0;
  /// Untimed rounds before the timed window: past the early rounds, whose
  /// cost climbs while FDS reshapes the decision mix.
  std::size_t warmup_rounds = 200;
  /// SpeedReference tick mix. Plant rounds track a tick of half compute,
  /// half random memory access; chaos rounds (aggregated kernel, payload
  /// rings) move with the machine as much as memory-bound work does.
  TickMix tick = kMixedTick;
  system::SystemParams system;
  faults::FaultParams faults;
  byzantine::PipelineOptions pipeline;
  byzantine::AdaptiveAdversaryParams adversary;
};

Config make_config(bool chaos, std::uint64_t seed) {
  Config c;
  c.chaos = chaos;
  c.system.vehicles_per_region = kVehiclesPerRegion;
  c.system.seed = derive_seed(seed, {0x5157});
  c.system.num_threads = 1;
  if (!chaos) return c;

  c.nominal_rounds_per_s = 130.0;
  c.warmup_rounds = 100;
  c.tick = kMemoryTick;
  c.system.data_plane_mode = perception::DataPlaneMode::kClassAggregated;
  net::NetParams& net = c.system.net;
  net.drop_rate = 0.2;
  net.delay_rate = 0.2;
  net.max_delay_rounds = 2;
  net.duplicate_rate = 0.05;
  net.reorder_rate = 0.1;
  net.max_retries = 2;
  net.backoff_base = 1;
  net.max_staleness = 3;
  net.seed = derive_seed(seed, {0x4E37});
  net::PartitionWindow partition;  // two components, salt-hashed membership
  partition.first_round = 10;
  partition.duration = 10;
  partition.num_components = 2;
  partition.salt = derive_seed(seed, {0x5A17});
  net.partitions.push_back(partition);

  c.faults.upload_loss_rate = 0.05;
  c.faults.outage_rate = 0.02;
  c.faults.seed = derive_seed(seed, {0xFA17});

  c.pipeline.aggregator.mode = byzantine::AggregationMode::kMedian;
  c.pipeline.aggregator.reject_outliers = true;
  c.pipeline.trust.enabled = true;

  c.adversary.attacker_fraction = 0.2;
  c.adversary.policy = byzantine::AdaptivePolicy::kThresholdProbe;
  c.adversary.seed = derive_seed(seed, {0xAD7});
  return c;
}

/// One engine with fresh copies of everything attached to it. The system
/// keeps pointers to the members, so an Instance never moves.
struct Instance {
  Instance(const PaperInputs& in, const Config& c)
      : faults(c.faults),
        pipeline(in.game->num_regions(), in.game->num_decisions(),
                 kVehiclesPerRegion, c.pipeline),
        adversary(in.game->num_regions(), kVehiclesPerRegion, c.adversary),
        controller(*in.game, *in.fields, fds_options()) {
    if (c.chaos) {
      sys.emplace(*in.game, c.system, &faults, &pipeline, &adversary);
    } else {
      sys.emplace(*in.game, c.system);
    }
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  std::vector<std::byte> state_bytes() const {
    Serializer s;
    sys->save_state(s);
    controller.save_state(s);
    return s.bytes();
  }

  faults::FaultModel faults;
  byzantine::ReportPipeline pipeline;
  byzantine::AdaptiveAdversary adversary;
  core::FdsController controller;
  std::optional<system::CooperativePerceptionSystem> sys;
};

std::size_t fleet_size(const Instance& inst) {
  return inst.sys->num_regions() * kVehiclesPerRegion;
}

void save_checkpoint(const Instance& inst, const std::filesystem::path& path,
                     Tracer* tracer) {
  checkpoint::CheckpointWriter writer(inst.sys->round());
  {
    Scope span(tracer, "checkpoint.save", -1);
    inst.sys->save_state(writer.section(checkpoint::kSectionSystem));
    inst.controller.save_state(writer.section(checkpoint::kSectionController));
  }
  Scope span(tracer, "checkpoint.write", -1);
  writer.write(path);
}

/// Loads a checkpoint into a fresh instance; false on trailing bytes.
bool load_checkpoint(Instance& inst,
                     const checkpoint::CheckpointReader& reader) {
  Deserializer d = reader.section(checkpoint::kSectionSystem);
  inst.sys->load_state(d);
  Deserializer dc = reader.section(checkpoint::kSectionController);
  inst.controller.load_state(dc);
  return d.exhausted() && dc.exhausted();
}

/// Per-round output checks and the trajectory digest.
class RoundChecker {
 public:
  RoundChecker(Result& r, std::vector<double> x0)
      : r_(r), prev_x_(std::move(x0)) {}

  void operator()(const system::RoundReport& rep) {
    bool ok = ratios_ok(rep.x) && is_distribution(rep.state) &&
              rep.x.size() == rep.state.p.size();
    if (ok && prev_x_.size() == rep.x.size()) {
      for (std::size_t i = 0; i < rep.x.size(); ++i) {
        if (std::abs(rep.x[i] - prev_x_[i]) > kFdsMaxStep + 1e-12) ok = false;
      }
    }
    r_.check(ok, "round " + std::to_string(digest_.rounds()) +
                     ": ratio outside [0,1], FDS step above max_step, or a "
                     "decision distribution not summing to 1");
    prev_x_ = rep.x;
    digest_.add_round(rep.x, rep.state);
  }

  const TrajectoryDigest& digest() const { return digest_; }

 private:
  Result& r_;
  std::vector<double> prev_x_;
  TrajectoryDigest digest_;
};

/// Pipeline + game + fields + engine + init: one set-up, timed into `times`.
std::pair<std::unique_ptr<PaperInputs>, std::unique_ptr<Instance>> set_up(
    const Config& cfg, std::vector<Timed>& times) {
  Timed t;
  t.start = now_s();
  auto in = PaperInputs::build();
  auto inst = std::make_unique<Instance>(*in, cfg);
  inst->sys->init_from(in->game->uniform_state());
  t.end = now_s();
  times.push_back(t);
  return {std::move(in), std::move(inst)};
}

Result untraced(const Options& o, const Config& cfg) {
  Result r;
  SpeedReference speed(cfg.tick);
  std::vector<Timed> setup;
  auto [in, live] = set_up(cfg, setup);
  speed.probe();

  RoundChecker checker(r, live->sys->current_x());
  const auto path = checkpoint_path(o);
  std::vector<std::byte> reference;  // state after the first restored round
  for (std::size_t w = 0; w < cfg.warmup_rounds; ++w) {
    if (w == kCrashRound) save_checkpoint(*live, path, nullptr);
    checker(live->sys->run_round(live->controller));
    if (w == kCrashRound) reference = live->state_bytes();
    speed.maybe_probe();
  }

  std::vector<Timed> recovery;
  system::RoundReport report;
  const RoundTimes times = run_sliced(
      speed, timed_rounds(o.seconds, cfg.nominal_rounds_per_s),
      kCapFactor * o.seconds, kSetupReps - 1, kRestoreReps,
      [&] {
        report = live->sys->run_round(live->controller);
        return fleet_size(*live);
      },
      [&] { checker(report); },
      [&] { set_up(cfg, setup); },
      [&] {
        // Restore: fresh engine from the static inputs, open, load, serve
        // one round; its state must equal the uninterrupted engine's after
        // that round.
        Timed t;
        t.start = now_s();
        auto inst = std::make_unique<Instance>(*in, cfg);
        const auto reader = checkpoint::CheckpointReader::open(path);
        const bool exhausted = load_checkpoint(*inst, reader);
        inst->sys->run_round(inst->controller);
        t.end = now_s();
        recovery.push_back(t);
        r.check(exhausted && inst->state_bytes() == reference,
                "restore " + std::to_string(recovery.size()) +
                    ": state after the first restored round differs");
      });
  report_run(r, speed, times, setup, recovery);
  r.digest = checker.digest().prefix();
  return r;
}

/// Replays the data-plane kernel on region-shaped scenes built from the
/// system's universe and the round's decision distribution, so the kernel's
/// share of a round can be timed from outside (System keeps its scenes
/// private). Scenes follow System's shape: desired items Bernoulli per
/// universe item, collections dealt disjointly over the region's vehicles.
class KernelReplay {
 public:
  KernelReplay(const core::MultiRegionGame& game,
               const perception::DataUniverse& universe,
               const system::SystemParams& params, std::uint64_t seed)
      : universe_(universe),
        params_(params),
        seed_(seed),
        plane_(game.lattice(), universe, game.config().access,
               derive_seed(seed, {0x4B52})) {}

  /// Runs every region's kernel for one round; returns deliveries.
  std::size_t run(Tracer& tracer, long round, const core::GameState& state,
                  const std::vector<double>& x) {
    std::size_t deliveries = 0;
    for (std::size_t i = 0; i < state.p.size(); ++i) {
      build_scene(round, i, state.p[i]);
      {
        Scope span(&tracer, "perception.kernel", round);
        plane_.run_round_into(fleet_.view(), x[i], no_faults_, no_items_,
                              params_.data_plane_mode, outcome_);
      }
      deliveries += outcome_.deliveries;
    }
    return deliveries;
  }

 private:
  void build_scene(long round, std::size_t region,
                   const std::vector<double>& p) {
    const std::size_t n = params_.vehicles_per_region;
    fleet_.clear();
    // Decisions by largest remainder, so class counts track the state.
    counts_.assign(p.size(), 0);
    std::size_t assigned = 0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      counts_[k] = static_cast<std::size_t>(std::floor(p[k] * double(n)));
      assigned += counts_[k];
    }
    while (assigned < n) {
      std::size_t best = 0;
      double best_frac = -1.0;
      for (std::size_t k = 0; k < p.size(); ++k) {
        const double frac = p[k] * double(n) - double(counts_[k]);
        if (frac > best_frac) {
          best = k;
          best_frac = frac;
        }
      }
      ++counts_[best];
      ++assigned;
    }
    for (std::size_t k = 0; k < p.size(); ++k) {
      for (std::size_t j = 0; j < counts_[k]; ++j) {
        fleet_.add(static_cast<core::DecisionId>(k));
      }
    }
    Rng rng(derive_seed(seed_, {0x5CE, static_cast<std::uint64_t>(round),
                                region}));
    const auto omega = static_cast<perception::ItemId>(universe_.size());
    for (std::size_t v = 0; v < n; ++v) {
      fleet_.begin_desired(v);
      bool empty = true;
      for (perception::ItemId id = 0; id < omega; ++id) {
        if (rng.bernoulli(params_.desire_fraction)) {
          fleet_.push_item(id);
          empty = false;
        }
      }
      if (empty) fleet_.push_item(0);
      fleet_.end_set();
    }
    owners_.assign(n, {});
    for (perception::ItemId id = 0; id < omega; ++id) {
      owners_[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]
          .push_back(id);
    }
    for (std::size_t v = 0; v < n; ++v) {
      fleet_.begin_collected(v);
      for (const perception::ItemId id : owners_[v]) fleet_.push_item(id);
      fleet_.end_set();
    }
  }

  const perception::DataUniverse& universe_;
  system::SystemParams params_;
  std::uint64_t seed_;
  perception::EdgeServerDataPlane plane_;
  perception::FleetSoA fleet_;
  perception::RoundOutcome outcome_;
  perception::CellFaultMask no_faults_;
  perception::ItemSet no_items_;
  std::vector<std::size_t> counts_;
  std::vector<std::vector<perception::ItemId>> owners_;
};

/// Exact counters summed over the first kCountRounds rounds of a traced run.
struct Counts {
  std::size_t deliveries = 0;
  std::uint64_t allocations = 0;
  NetCounts net;
  std::size_t outliers_rejected = 0, uploads_lost = 0, regions_down = 0;
  std::size_t quarantined = 0, distrusted = 0;
  double flag_precision = 1.0;

  void add(const system::RoundReport& rep) {
    net.sent += rep.net.sent;
    net.delivered += rep.net.delivered;
    net.dropped += rep.net.dropped;
    net.retries += rep.net.retries;
    net.expired += rep.net.expired;
    net.stale_links += rep.net.stale_links;
    net.blind_links += rep.net.blind_links;
    for (const std::size_t n : rep.byzantine.outliers_rejected) {
      outliers_rejected += n;
    }
    uploads_lost += rep.faults.uploads_lost;
    regions_down += rep.faults.regions_down;
    quarantined = rep.byzantine.total_quarantined;
    distrusted = rep.byzantine.total_distrusted;
  }

  /// Share of excluded vehicles that the adversary designated.
  void score(const Instance& inst) {
    std::size_t tp = 0, fp = 0;
    for (core::RegionId i = 0; i < inst.sys->num_regions(); ++i) {
      for (std::size_t v = 0; v < kVehiclesPerRegion; ++v) {
        if (!inst.pipeline.excluded(i, v)) continue;
        (inst.adversary.ever_attacks(i, v) ? tp : fp) += 1;
      }
    }
    flag_precision = tp + fp == 0 ? 1.0 : double(tp) / double(tp + fp);
  }
};

Result traced(const Options& o, const Config& cfg) {
  Result r;
  Tracer tracer;
  long round = -1;  // the round B's spans belong to

  PaperInputs in;
  in.artifacts = staged_pipeline(paper_pipeline(), tracer);
  r.require(same_specs(in.artifacts.region_specs,
                       sim::build_pipeline(paper_pipeline()).region_specs),
            "staged pipeline region specs differ from build_pipeline's");
  in.finish();

  // A runs untraced, B traced; both follow the same trajectory, and their
  // rounds interleave so machine drift hits both alike.
  Instance a(in, cfg);
  Instance b(in, cfg);
  a.sys->init_from(in.game->uniform_state());
  b.sys->init_from(in.game->uniform_state());
  TracedController b_controller(b.controller, tracer, round);
  KernelReplay replay(*in.game, b.sys->universe(), cfg.system,
                      derive_seed(cfg.system.seed, {0x4EB}));
  RoundChecker check_a(r, a.sys->current_x());
  RoundChecker check_b(r, b.sys->current_x());
  Counts counts;
  std::vector<double> ta, tb;
  std::vector<std::byte> reference;
  const auto path = checkpoint_path(o);

  auto step = [&](bool timed) {
    double t0 = now_s();
    const auto rep_a = a.sys->run_round(a.controller);
    const double da = now_s() - t0;

    round = static_cast<long>(b.sys->round());
    const std::uint64_t allocs = allocations();
    count_allocations(true);
    t0 = now_s();
    system::RoundReport rep_b;
    {
      Scope span(&tracer, "system.round", round);
      rep_b = b.sys->run_round(b_controller);
    }
    const double db = now_s() - t0;
    count_allocations(false);

    const std::size_t deliveries =
        replay.run(tracer, round, rep_b.state, rep_b.x);
    if (round < static_cast<long>(kCountRounds)) {
      counts.allocations += allocations() - allocs;
      counts.deliveries += deliveries;
      counts.add(rep_b);
      if (round + 1 == static_cast<long>(kCountRounds)) counts.score(b);
    }
    check_a(rep_a);
    check_b(rep_b);
    if (timed) {
      ta.push_back(da);
      tb.push_back(db);
    }
  };

  for (std::size_t w = 0; w < cfg.warmup_rounds; ++w) {
    if (w == kCrashRound) save_checkpoint(b, path, &tracer);
    step(false);
    if (w == kCrashRound) reference = b.state_bytes();
  }
  const std::size_t rounds = traced_rounds(o.seconds, cfg.nominal_rounds_per_s);
  while (tb.size() < rounds || check_b.digest().rounds() < kCountRounds) {
    step(true);
  }
  r.require(check_a.digest() == check_b.digest(),
            "trajectory digest differs with tracing on");

  for (std::size_t rep = 0; rep < kTracedReps; ++rep) {
    save_checkpoint(b, path.string() + ".live", &tracer);
    Instance inst(in, cfg);
    bool exhausted = false;
    {
      std::optional<checkpoint::CheckpointReader> reader;
      {
        Scope span(&tracer, "checkpoint.open", -1);
        reader.emplace(checkpoint::CheckpointReader::open(path));
      }
      Scope span(&tracer, "checkpoint.load", -1);
      exhausted = load_checkpoint(inst, *reader);
    }
    round = -1;
    TracedController controller(inst.controller, tracer, round);
    {
      Scope span(&tracer, "system.restore_round", -1);
      inst.sys->run_round(controller);
    }
    r.check(exhausted && inst.state_bytes() == reference,
            "traced restore " + std::to_string(rep) + " diverged");
  }

  using M = Tracer::Measure;
  const long first = static_cast<long>(cfg.warmup_rounds);
  report_pipeline_layers(tracer, r);
  report_checkpoint_layers(tracer, r, path);
  r.set("system.round_ms",
        median_ms(tracer.by_round("system.round", M::kTotal, first)), "ms",
        rounds);
  r.set("system.self_ms",
        median_ms(tracer.by_round("system.round", M::kSelf, first)), "ms",
        rounds);
  r.set("core.fds_ms", median_ms(tracer.by_round("core.fds", M::kTotal, first)),
        "ms", rounds);
  r.set("perception.kernel_ms",
        median_ms(tracer.by_round("perception.kernel", M::kTotal, first)), "ms",
        rounds);
  r.set("perception.deliveries", double(counts.deliveries), "count",
        kCountRounds);
  r.set("common.allocs_per_round",
        double(counts.allocations) / double(kCountRounds), "count",
        kCountRounds);
  if (cfg.chaos) {
    counts.net.report(r);
    r.set("byzantine.outliers_rejected", double(counts.outliers_rejected),
          "count", kCountRounds);
    r.set("byzantine.quarantined", double(counts.quarantined), "count",
          kCountRounds);
    r.set("byzantine.distrusted", double(counts.distrusted), "count",
          kCountRounds);
    r.set("byzantine.flag_precision", counts.flag_precision, "share",
          kCountRounds);
    r.set("faults.uploads_lost", double(counts.uploads_lost), "count",
          kCountRounds);
    r.set("faults.regions_down", double(counts.regions_down), "count",
          kCountRounds);
  }
  r.set("bench.tracing_overhead_ms", 1e3 * (median(tb) - median(ta)), "ms",
        tb.size());
  r.digest = check_b.digest().prefix();
  tracer.write_json(spans_path(o));
  return r;
}

}  // namespace

Result run_plant(const Options& o) {
  const Config cfg = make_config(o.workload == "chaos", o.seed);
  return o.trace ? traced(o, cfg) : untraced(o, cfg);
}

}  // namespace perfbench
