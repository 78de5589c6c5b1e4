// Workload `service`: ServiceEngine, the long-running epoch loop, on the
// paper city and game with churn, congestion-coupled re-clustering, 20%
// free-riders, outages and report loss, a lossy region-to-cloud backhaul,
// and FDS inside the engine's DegradedController. Every epoch re-clusters
// and refreshes the betweenness chunks while perception is never called, so
// this is the bypass arm for data-plane changes and the arm where cluster
// and roadnet work shows. It also has the heaviest restore (the clustering
// rebuild).
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "checkpoint/checkpoint.h"
#include "cluster/incremental_clustering.h"
#include "common.h"
#include "common/rng.h"
#include "common/serial.h"
#include "faults/fault_model.h"
#include "roadnet/betweenness.h"
#include "service/service_engine.h"

namespace perfbench {

using namespace avcp;

namespace {

/// Epochs before the checkpoint the restores load (the crash point), and
/// before the timed window (epoch cost shows no early trend).
constexpr std::size_t kCrashRound = 5;
constexpr std::size_t kWarmupRounds = 10;
constexpr std::size_t kSetupReps = 5;
constexpr double kNominalRoundsPerSecond = 22.0;
constexpr std::size_t kRestoreReps = 9;
constexpr std::size_t kTracedReps = 5;
constexpr double kInitialRatio = 0.5;

struct Config {
  service::ServiceParams service;
  faults::FaultParams faults;
};

Config make_config(std::uint64_t seed) {
  Config c;
  service::ServiceParams& sp = c.service;
  sp.vehicles_per_region = 50;
  sp.revision_rate = 0.9;
  sp.imitation_scale = 0.7;
  sp.seed = derive_seed(seed, {0x5E7});
  sp.num_threads = 1;
  sp.attacker_fraction = 0.2;
  // ~10 leaves and ~10 joins per epoch keep the fleet near 1000 vehicles.
  sp.churn.leave_rate = 0.01;
  sp.churn.migrate_rate = 0.05;
  sp.churn.join_slots = 20;
  sp.churn.join_rate = 0.5;
  sp.churn.seed = derive_seed(seed, {0xC4});
  sp.congestion_alpha = 0.05;
  sp.reputation.decay = 0.6;
  sp.reputation.quarantine_threshold = 0.3;
  sp.reputation.rehab_threshold = 0.05;
  sp.reputation.rehab_rounds = 50;
  sp.reputation.min_rounds = 4;
  sp.degraded.staleness_budget = 2;
  sp.degraded.max_step = 0.1;
  net::NetParams& net = sp.net;
  net.drop_rate = 0.2;
  net.delay_rate = 0.2;
  net.max_delay_rounds = 2;
  net.duplicate_rate = 0.05;
  net.reorder_rate = 0.1;
  net.max_retries = 2;
  net.backoff_base = 1;
  net.max_staleness = 3;
  net.seed = derive_seed(seed, {0x4E37});

  c.faults.report_loss_rate = 0.08;
  c.faults.outage_rate = 0.02;
  c.faults.seed = derive_seed(seed, {0xFA17});
  return c;
}

std::vector<double> initial_ratios(const PaperInputs& in) {
  return std::vector<double>(in.game->num_regions(), kInitialRatio);
}

/// One engine with its own fault model and FDS controller. With a tracer,
/// the engine wraps a TracedController around the FDS controller instead
/// of the controller itself. The engine keeps references to the members,
/// so an Instance never moves.
struct Instance {
  Instance(const PaperInputs& in, const Config& c, Tracer* tracer = nullptr,
           const long* round = nullptr)
      : faults(c.faults), fds(*in.game, *in.fields, fds_options()) {
    core::Controller* controller = &fds;
    if (tracer != nullptr) controller = &traced.emplace(fds, *tracer, *round);
    engine.emplace(*in.game, *controller, &in.artifacts.graph, c.service,
                   &faults);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  std::vector<std::byte> state_bytes() const {
    Serializer s;
    engine->save_state(s);
    fds.save_state(s);
    return s.bytes();
  }

  faults::FaultModel faults;
  core::FdsController fds;
  std::optional<TracedController> traced;
  std::optional<service::ServiceEngine> engine;
};

void save_checkpoint(const Instance& inst, const std::filesystem::path& path,
                     Tracer* tracer) {
  checkpoint::CheckpointWriter writer(inst.engine->epoch());
  {
    Scope span(tracer, "checkpoint.save", -1);
    inst.engine->save_state(writer.section(checkpoint::kSectionService));
    inst.fds.save_state(writer.section(checkpoint::kSectionController));
  }
  Scope span(tracer, "checkpoint.write", -1);
  writer.write(path);
}

bool load_checkpoint(Instance& inst,
                     const checkpoint::CheckpointReader& reader) {
  Deserializer d = reader.section(checkpoint::kSectionService);
  inst.engine->load_state(d);
  Deserializer dc = reader.section(checkpoint::kSectionController);
  inst.fds.load_state(dc);
  return d.exhausted() && dc.exhausted();
}

class EpochChecker {
 public:
  explicit EpochChecker(Result& r) : r_(r) {}

  void operator()(const service::ServiceEngine& svc) {
    std::size_t honest = 0;
    for (const service::VehicleRecord& rec : svc.fleet()) {
      honest += rec.attacker ? 0 : 1;
    }
    const bool ok = ratios_ok(svc.x()) &&
                    svc.x().size() == svc.true_state().p.size() &&
                    is_distribution(svc.true_state()) &&
                    honest > svc.quarantined_count();
    r_.check(ok, "epoch " + std::to_string(digest_.rounds()) +
                     ": ratio outside [0,1], a decision distribution not "
                     "summing to 1, or quarantined vehicles outnumber the "
                     "honest fleet");
    digest_.add_round(svc.x(), svc.true_state());
  }

  const TrajectoryDigest& digest() const { return digest_; }

 private:
  Result& r_;
  TrajectoryDigest digest_;
};

/// Pipeline + game + fields + engine + init: one set-up, timed into `times`.
std::pair<std::unique_ptr<PaperInputs>, std::unique_ptr<Instance>> set_up(
    const Config& cfg, std::vector<Timed>& times) {
  Timed t;
  t.start = now_s();
  auto in = PaperInputs::build();
  auto inst = std::make_unique<Instance>(*in, cfg);
  inst->engine->init(in->game->uniform_state(), initial_ratios(*in));
  t.end = now_s();
  times.push_back(t);
  return {std::move(in), std::move(inst)};
}

Result untraced(const Options& o, const Config& cfg) {
  Result r;
  SpeedReference speed(kMixedTick);
  std::vector<Timed> setup;
  auto [in, live] = set_up(cfg, setup);
  speed.probe();

  EpochChecker checker(r);
  const auto path = checkpoint_path(o);
  std::vector<std::byte> reference;  // state after the first restored epoch
  for (std::size_t w = 0; w < kWarmupRounds; ++w) {
    if (w == kCrashRound) save_checkpoint(*live, path, nullptr);
    live->engine->run_epoch();
    checker(*live->engine);
    if (w == kCrashRound) reference = live->state_bytes();
    speed.maybe_probe();
  }

  std::vector<Timed> recovery;
  const RoundTimes times = run_sliced(
      speed, timed_rounds(o.seconds, kNominalRoundsPerSecond),
      kCapFactor * o.seconds, kSetupReps - 1, kRestoreReps,
      [&] {
        live->engine->run_epoch();
        return live->engine->fleet().size();
      },
      [&] { checker(*live->engine); },
      [&] { set_up(cfg, setup); },
      [&] {
        Timed t;
        t.start = now_s();
        auto inst = std::make_unique<Instance>(*in, cfg);
        const auto reader = checkpoint::CheckpointReader::open(path);
        const bool exhausted = load_checkpoint(*inst, reader);
        inst->engine->run_epoch();
        t.end = now_s();
        recovery.push_back(t);
        r.check(exhausted && inst->state_bytes() == reference,
                "restore " + std::to_string(recovery.size()) +
                    ": state after the first restored epoch differs");
      });
  report_run(r, speed, times, setup, recovery);
  r.digest = checker.digest().prefix();
  return r;
}

/// Mirrors the service's clustering from outside: after each epoch the
/// engine's per-segment loads (clustering()->loads()) are diffed against
/// the replica's and the deltas replayed through IncrementalClustering::apply
/// inside a "cluster.apply" span.
class ApplyReplay {
 public:
  ApplyReplay(const roadnet::RoadGraph& graph, const Config& cfg,
              std::size_t num_regions, std::span<const std::int64_t> loads)
      : replica_(graph, options(cfg, num_regions)) {
    replica_.set_loads(loads);
    // The chunk count is private to the clustering; a probe over the same
    // graph and weights has the same one.
    const auto weights = cluster::IncrementalClustering::load_weights(
        graph, loads, cfg.service.congestion_alpha);
    num_chunks_ = roadnet::IncrementalBetweenness(
                      graph, weights, options(cfg, num_regions).betweenness)
                      .num_chunks();
  }

  /// Returns false when the replica's regions disagree with the engine's.
  bool run(Tracer& tracer, long round,
           const cluster::IncrementalClustering& live) {
    deltas_.clear();
    const auto mine = replica_.loads();
    const auto theirs = live.loads();
    for (std::size_t s = 0; s < theirs.size(); ++s) {
      if (theirs[s] != mine[s]) {
        deltas_.push_back({static_cast<roadnet::SegmentId>(s),
                           static_cast<std::int32_t>(theirs[s] - mine[s])});
      }
    }
    if (!deltas_.empty()) {
      Scope span(&tracer, "cluster.apply", round);
      const auto stats = replica_.apply(deltas_);
      if (round < static_cast<long>(kCountRounds)) {
        chunks_ += stats.chunks_recomputed;
        ++applies_;
      }
    }
    return replica_.clustering().region_of == live.clustering().region_of;
  }

  double chunk_share() const {
    return applies_ == 0 ? 0.0
                         : double(chunks_) / double(applies_ * num_chunks_);
  }

 private:
  static cluster::IncrementalClusteringOptions options(const Config& cfg,
                                                       std::size_t regions) {
    cluster::IncrementalClusteringOptions o;
    o.clustering.num_regions = static_cast<std::uint32_t>(regions);
    o.betweenness.num_threads = 1;
    o.congestion_alpha = cfg.service.congestion_alpha;
    return o;
  }

  cluster::IncrementalClustering replica_;
  std::vector<cluster::LoadDelta> deltas_;
  std::size_t num_chunks_ = 1;
  std::size_t chunks_ = 0;
  std::size_t applies_ = 0;
};

Result traced(const Options& o, const Config& cfg) {
  Result r;
  Tracer tracer;
  long round = -1;

  PaperInputs in;
  in.artifacts = staged_pipeline(paper_pipeline(), tracer);
  r.require(same_specs(in.artifacts.region_specs,
                       sim::build_pipeline(paper_pipeline()).region_specs),
            "staged pipeline region specs differ from build_pipeline's");
  in.finish();

  Instance a(in, cfg);
  Instance b(in, cfg, &tracer, &round);
  a.engine->init(in.game->uniform_state(), initial_ratios(in));
  {
    Scope span(&tracer, "service.init", -1);
    b.engine->init(in.game->uniform_state(), initial_ratios(in));
  }
  ApplyReplay replay(in.artifacts.graph, cfg, in.game->num_regions(),
                     b.engine->clustering()->loads());

  EpochChecker check_a(r), check_b(r);
  std::vector<double> ta, tb;
  std::vector<std::byte> reference;
  std::uint64_t allocs = 0;
  service::ServiceCounters counters;
  NetCounts net;
  const auto path = checkpoint_path(o);

  auto step = [&](bool timed) {
    double t0 = now_s();
    a.engine->run_epoch();
    const double da = now_s() - t0;

    round = static_cast<long>(b.engine->epoch());
    const std::uint64_t before = allocations();
    count_allocations(true);
    t0 = now_s();
    {
      Scope span(&tracer, "service.epoch", round);
      b.engine->run_epoch();
    }
    const double db = now_s() - t0;
    count_allocations(false);
    const std::uint64_t made = allocations() - before;
    r.require(replay.run(tracer, round, *b.engine->clustering()),
              "replayed clustering disagrees with the service's");
    if (round < static_cast<long>(kCountRounds)) {
      allocs += made;
      const net::ExchangeChannel& ch = *b.engine->channel();
      for (std::uint32_t link = 0; link < ch.num_links(); ++link) {
        const std::uint64_t got = ch.consumable(link, std::size_t(round));
        if (got == net::ExchangeChannel::kNothing) {
          ++net.blind_links;
        } else if (got != static_cast<std::uint64_t>(round)) {
          ++net.stale_links;
        }
      }
      counters = b.engine->counters();
      net.sent = ch.counters().sent;
      net.delivered = ch.counters().delivered;
      net.dropped = ch.counters().dropped;
      net.retries = ch.counters().retries;
      net.expired = ch.counters().expired;
    }
    check_a(*a.engine);
    check_b(*b.engine);
    if (timed) {
      ta.push_back(da);
      tb.push_back(db);
    }
  };

  for (std::size_t w = 0; w < kWarmupRounds; ++w) {
    if (w == kCrashRound) save_checkpoint(b, path, &tracer);
    step(false);
    if (w == kCrashRound) reference = b.state_bytes();
  }
  const std::size_t rounds = traced_rounds(o.seconds, kNominalRoundsPerSecond);
  while (tb.size() < rounds || check_b.digest().rounds() < kCountRounds) {
    step(true);
  }
  r.require(check_a.digest() == check_b.digest(),
            "trajectory digest differs with tracing on");

  for (std::size_t rep = 0; rep < kTracedReps; ++rep) {
    save_checkpoint(b, path.string() + ".live", &tracer);
    round = -1;
    Instance fresh(in, cfg, &tracer, &round);
    bool exhausted = false;
    {
      std::optional<checkpoint::CheckpointReader> reader;
      {
        Scope span(&tracer, "checkpoint.open", -1);
        reader.emplace(checkpoint::CheckpointReader::open(path));
      }
      Scope span(&tracer, "checkpoint.load", -1);
      exhausted = load_checkpoint(fresh, *reader);
    }
    {
      Scope span(&tracer, "system.restore_round", -1);
      fresh.engine->run_epoch();
    }
    r.check(exhausted && fresh.state_bytes() == reference,
            "traced restore " + std::to_string(rep) + " diverged");
  }

  using M = Tracer::Measure;
  const long first = static_cast<long>(kWarmupRounds);
  report_pipeline_layers(tracer, r);
  report_checkpoint_layers(tracer, r, path);
  r.set("service.init_ms",
        median_ms(tracer.each("service.init", M::kTotal)), "ms");
  r.set("service.epoch_ms",
        median_ms(tracer.by_round("service.epoch", M::kTotal, first)), "ms",
        rounds);
  r.set("service.self_ms",
        median_ms(tracer.by_round("service.epoch", M::kSelf, first)), "ms",
        rounds);
  r.set("core.fds_ms", median_ms(tracer.by_round("core.fds", M::kTotal, first)),
        "ms", rounds);
  const auto applies = tracer.by_round("cluster.apply", M::kTotal, first);
  r.set("cluster.apply_ms", median_ms(applies), "ms", applies.size());
  r.set("cluster.chunks_recomputed_share", replay.chunk_share(), "share",
        kCountRounds);
  r.set("service.reclusters", double(counters.reclusters), "count",
        kCountRounds);
  r.set("service.recluster_deferred", double(counters.recluster_deferred),
        "count", kCountRounds);
  r.set("service.churn_events",
        double(counters.joins + counters.leaves + counters.migrations), "count",
        kCountRounds);
  r.set("faults.regions_down", double(counters.outage_region_epochs), "count",
        kCountRounds);
  net.report(r);
  r.set("common.allocs_per_round", double(allocs) / double(kCountRounds),
        "count", kCountRounds);
  r.set("bench.tracing_overhead_ms", 1e3 * (median(tb) - median(ta)), "ms",
        tb.size());
  r.digest = check_b.digest().prefix();
  tracer.write_json(spans_path(o));
  return r;
}

}  // namespace

Result run_service(const Options& o) {
  const Config cfg = make_config(o.seed);
  return o.trace ? traced(o, cfg) : untraced(o, cfg);
}

}  // namespace perfbench
