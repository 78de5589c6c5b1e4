// Agent-based micro-simulation of decision revision.
//
// Where runner.h evolves the mean-field distributions directly, this
// simulator tracks N individual vehicles per region, each holding one
// data-sharing decision. Every round a revising vehicle samples a random
// peer of its own region and imitates the peer's decision with probability
// proportional to the positive fitness difference — pairwise proportional
// imitation (core::imitate, the rule every per-vehicle engine shares),
// whose large-population limit is exactly the replicator dynamics of
// Eq. (5). Tests use it to validate the mean-field model; the
// benches use it for failure-injection ablations (defector vehicles that
// never revise).
//
// Regions are independent within a round (fitness is computed against the
// synchronous start-of-round snapshot), so the per-region fitness +
// revision work fans out over a ThreadPool. Every (round, region) draws
// from its own counter-based RNG stream derived by pure hash from the seed
// (common/rng.h derive_seed), so trajectories are bit-identical at every
// thread count and independent of region iteration order.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "byzantine/adversary_model.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/game.h"
#include "faults/fault_model.h"
#include "sim/measured_exchange.h"

namespace avcp::sim {

struct AgentSimParams {
  std::size_t vehicles_per_region = 500;
  /// Probability a vehicle revises its decision each round.
  double revision_rate = 1.0;
  /// Imitation probability = clamp(scale * (q_peer - q_self), 0, 1).
  /// Matches the mean-field step when scale equals the game's step_size.
  /// Defector vehicles (ones that never revise) are injected via a
  /// faults::FaultModel carrying FaultParams::defector_fraction — the same
  /// schedule the system plant sees; there is no simulator-local knob.
  double imitation_scale = 1.0;
  std::uint64_t seed = 99;
  /// When true, per-decision fitness comes from a measured data-plane
  /// exchange (MeasuredExchange, with `exchange.mode` selecting the
  /// kernel) instead of the analytic Eq. (4) fitness. Still bit-identical
  /// at every thread count: each region owns its evaluator and every
  /// (round, region) synthesis uses its own hash-derived stream.
  bool measured_fitness = false;
  MeasuredExchangeParams exchange;
  /// Worker lanes for the per-region round work. 0 = hardware concurrency.
  /// Purely a throughput knob: the trajectory is bit-identical at every
  /// value (per-region RNG streams, no cross-region reduction).
  std::size_t num_threads = 1;
};

class AgentBasedSim {
 public:
  /// `game` must outlive the simulator. `faults` (optional; must outlive
  /// the simulator) injects failures: defector vehicles that never revise,
  /// and region outages during which a region's fleet receives no fitness
  /// signal and holds its decisions for the round.
  AgentBasedSim(const core::MultiRegionGame& game, AgentSimParams params,
                const faults::FaultModel* faults = nullptr,
                const byzantine::AdversaryModel* adversary = nullptr);

  /// Draws every vehicle's decision i.i.d. from `state`'s per-region
  /// distribution.
  void init_from(const core::GameState& state);

  /// One revision round at sharing ratios x. Fitness is computed from the
  /// empirical distribution at the start of the round (synchronous).
  void step(std::span<const double> x);

  /// Empirical per-region decision distribution (true decisions).
  core::GameState empirical_state() const;

  /// The distribution the cloud would see from a trusting mean over
  /// *claimed* decisions: attacking vehicles report their falsified claim
  /// (byzantine::AdversaryModel) instead of their true decision. Equal to
  /// empirical_state() when no adversary is attached.
  core::GameState reported_state() const;

  std::size_t vehicles_per_region() const noexcept {
    return params_.vehicles_per_region;
  }

  /// Checkpoint hooks: round/init counters, the fleet's decisions, and —
  /// under measured fitness — every evaluator's plane RNG position. The
  /// defector table is reconstructed from the fault model at construction
  /// and is not serialized. Call between step()s only. load_state throws
  /// SerialError on a shape or configuration mismatch.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  const core::MultiRegionGame& game_;
  AgentSimParams params_;
  const faults::FaultModel* faults_;
  const byzantine::AdversaryModel* adversary_;
  std::size_t round_ = 0;
  /// Bumped per init_from call so re-seeding draws fresh streams.
  std::size_t init_epoch_ = 0;
  ThreadPool pool_;
  /// decisions_[i][v] = decision of vehicle v in region i.
  std::vector<std::vector<core::DecisionId>> decisions_;
  /// defector_[i][v] = true if the vehicle never revises.
  std::vector<std::vector<bool>> defector_;
  /// Measured-fitness evaluators, one per region (deque: non-movable
  /// elements); empty when measured_fitness is off. Region task i is the
  /// sole user of exchanges_[i], preserving thread-count invariance.
  std::deque<MeasuredExchange> exchanges_;
  /// Cost-balanced chunk plan for the per-region dispatch (per-region cost
  /// = vehicles × classes). Fleet shapes are fixed at construction, so the
  /// plan is computed once; boundaries are thread-count independent.
  std::vector<std::uint32_t> chunk_plan_;
};

}  // namespace avcp::sim
