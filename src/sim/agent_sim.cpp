#include "sim/agent_sim.h"

#include "common/contracts.h"
#include "common/serial.h"
#include "core/imitation.h"

namespace avcp::sim {

namespace {

// Stream tags for derive_seed: which consumer of the simulator's seed a
// stream belongs to. Distinct tags keep init and step draws uncorrelated.
constexpr std::uint64_t kInitStream = 0xA1;
constexpr std::uint64_t kStepStream = 0xA2;
constexpr std::uint64_t kMeasureStream = 0xA3;

}  // namespace

AgentBasedSim::AgentBasedSim(const core::MultiRegionGame& game,
                             AgentSimParams params,
                             const faults::FaultModel* faults,
                             const byzantine::AdversaryModel* adversary)
    : game_(game),
      params_(params),
      faults_(faults != nullptr && faults->active() ? faults : nullptr),
      adversary_(adversary != nullptr && adversary->active() ? adversary
                                                             : nullptr),
      pool_(ThreadPool::clamped_lanes(params.num_threads)) {
  AVCP_EXPECT(params_.vehicles_per_region >= 2);
  AVCP_EXPECT(params_.revision_rate >= 0.0 && params_.revision_rate <= 1.0);
  AVCP_EXPECT(params_.imitation_scale > 0.0);
  decisions_.assign(game.num_regions(),
                    std::vector<core::DecisionId>(params_.vehicles_per_region, 0));
  defector_.assign(game.num_regions(),
                   std::vector<bool>(params_.vehicles_per_region, false));
  if (faults_ != nullptr) {
    // Fault-layer defectors: a pure hash of (seed, region, vehicle), the
    // same schedule any other consumer of this model sees.
    for (core::RegionId i = 0; i < game.num_regions(); ++i) {
      for (std::size_t v = 0; v < defector_[i].size(); ++v) {
        defector_[i][v] = faults_->vehicle_defects(i, v);
      }
    }
  }
  if (params_.measured_fitness) {
    for (core::RegionId i = 0; i < game.num_regions(); ++i) {
      exchanges_.emplace_back(game, params_.exchange,
                              derive_seed(params_.seed, {kMeasureStream, i}));
    }
  }
  // Balance the per-region dispatch by measured cost (vehicles × classes),
  // not region count; fleet shapes are fixed, so plan once.
  std::vector<double> cost(game.num_regions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    cost[i] = static_cast<double>(decisions_[i].size()) *
              static_cast<double>(game.num_decisions());
  }
  chunk_plan_ = balanced_chunks(cost, 4 * pool_.size());
}

void AgentBasedSim::init_from(const core::GameState& state) {
  AVCP_EXPECT(state.p.size() == game_.num_regions());
  const std::size_t epoch = init_epoch_++;
  auto task = [&](std::size_t i) {
    core::check_distribution(state.p[i]);
    Rng rng(derive_seed(params_.seed, {kInitStream, epoch, i}));
    for (auto& decision : decisions_[i]) {
      decision = static_cast<core::DecisionId>(rng.weighted_index(state.p[i]));
    }
  };
  const ThreadPool::Stage stage{decisions_.size(), IndexFnRef(task), 0,
                                chunk_plan_};
  pool_.run_batch({&stage, 1});
}

void AgentBasedSim::step(std::span<const double> x) {
  AVCP_EXPECT(x.size() == game_.num_regions());
  const core::GameState snapshot = empirical_state();

  auto task = [&](std::size_t i) {
    // Edge-server outage: the region's fleet gets no fitness signal this
    // round, so every vehicle holds its decision — checked before the
    // fitness computation, which dominates the per-round cost and would be
    // wasted on a faulted region.
    if (faults_ != nullptr &&
        faults_->region_down(round_, static_cast<core::RegionId>(i))) {
      return;
    }
    // Per-region fitness of every decision against the snapshot: analytic
    // Eq. (4) by default, or one measured data-plane exchange over the
    // empirical mix (each round/region on its own derived stream).
    const std::vector<double> q =
        params_.measured_fitness
            ? exchanges_[i].per_decision_fitness(
                  snapshot.p[i], game_.region(static_cast<core::RegionId>(i)).beta,
                  x[i], derive_seed(params_.seed, {kMeasureStream, round_, i}))
            : game_.region_fitness(snapshot, x, static_cast<core::RegionId>(i));
    Rng rng(derive_seed(params_.seed, {kStepStream, round_, i}));
    auto& region = decisions_[i];
    const std::vector<core::DecisionId> before = region;  // revise vs snapshot
    // A vehicle attacking this round holds its decision strategically, like
    // a defector — but additionally lies in reported_state(). Designated
    // vehicles outside their strategy's scope (colluders in non-target
    // regions, flip-floppers in honest half-cycles) revise honestly.
    core::imitate(
        before, before, params_.revision_rate, params_.imitation_scale, rng,
        [&](std::size_t v) {
          return defector_[i][v] ||
                 (adversary_ != nullptr &&
                  adversary_->attacking(round_,
                                        static_cast<core::RegionId>(i), v));
        },
        [&](std::size_t v) { return q[before[v]]; },
        [&](std::size_t v, core::DecisionId d) { region[v] = d; });
  };
  const ThreadPool::Stage stage{decisions_.size(), IndexFnRef(task), 0,
                                chunk_plan_};
  pool_.run_batch({&stage, 1});
  ++round_;
}

void AgentBasedSim::save_state(Serializer& s) const {
  s.put_u64(game_.num_regions());
  s.put_u64(params_.vehicles_per_region);
  s.put_u64(params_.seed);
  s.put_bool(params_.measured_fitness);
  s.put_u64(round_);
  s.put_u64(init_epoch_);
  for (const std::vector<core::DecisionId>& region : decisions_) {
    put_u32_vec(s, region);
  }
  for (const MeasuredExchange& exchange : exchanges_) {
    exchange.save_state(s);
  }
}

void AgentBasedSim::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == game_.num_regions(),
                      "AgentSim snapshot: region count mismatch");
  Deserializer::check(d.get_u64() == params_.vehicles_per_region,
                      "AgentSim snapshot: fleet size mismatch");
  Deserializer::check(d.get_u64() == params_.seed,
                      "AgentSim snapshot: seed mismatch");
  Deserializer::check(d.get_bool() == params_.measured_fitness,
                      "AgentSim snapshot: fitness mode mismatch");
  round_ = d.get_u64();
  init_epoch_ = d.get_u64();
  for (std::vector<core::DecisionId>& region : decisions_) {
    std::vector<core::DecisionId> row = get_u32_vec(d);
    Deserializer::check(row.size() == region.size(),
                        "AgentSim snapshot: decisions row size mismatch");
    for (const core::DecisionId decision : row) {
      Deserializer::check(decision < game_.num_decisions(),
                          "AgentSim snapshot: decision id out of range");
    }
    region = std::move(row);
  }
  for (MeasuredExchange& exchange : exchanges_) {
    exchange.load_state(d);
  }
}

core::GameState AgentBasedSim::empirical_state() const {
  core::GameState state;
  state.p.assign(game_.num_regions(),
                 std::vector<double>(game_.num_decisions(), 0.0));
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    for (const core::DecisionId d : decisions_[i]) {
      state.p[i][d] += 1.0;
    }
    for (double& v : state.p[i]) {
      v /= static_cast<double>(decisions_[i].size());
    }
  }
  return state;
}

core::GameState AgentBasedSim::reported_state() const {
  if (adversary_ == nullptr) return empirical_state();
  core::GameState state;
  state.p.assign(game_.num_regions(),
                 std::vector<double>(game_.num_decisions(), 0.0));
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const auto region = static_cast<core::RegionId>(i);
    for (std::size_t v = 0; v < decisions_[i].size(); ++v) {
      byzantine::VehicleReport r;
      r.decision = decisions_[i][v];
      r = adversary_->falsify(round_, region, v, r);
      state.p[i][r.decision] += 1.0;
    }
    for (double& value : state.p[i]) {
      value /= static_cast<double>(decisions_[i].size());
    }
  }
  return state;
}

}  // namespace avcp::sim
