// Trace-driven vehicle-level simulation.
//
// The mean-field runner (runner.h) evolves region distributions directly;
// the zero-churn service (service/service_engine.h) tracks individuals but
// pins them to one region. This simulator closes the remaining gap to the
// paper's trace-driven evaluation: each *trace vehicle* carries a
// data-sharing decision through its actual GPS trajectory, so vehicles
// migrate between regions as they drive (the effect that motivates the
// paper's region-level analysis in the first place). Each policy round (the
// paper's 10 minutes):
//
//   1. every vehicle is located in the region where it spent most of the
//      round (vehicles without fixes are dormant and keep their decision);
//   2. region decision distributions are formed from the present vehicles;
//   3. fitness comes from the game (Eq. 4) at the controller's ratios;
//   4. each region's present vehicles, in id order, revise by pairwise
//      proportional imitation (core::imitate) against a peer of the same
//      roster; regions go in index order, all from one revision stream.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "cluster/region_clustering.h"
#include "common/rng.h"
#include "core/game.h"
#include "trace/types.h"

namespace avcp::sim {

/// Streaming presence-table builder: feed GPS fixes one at a time (any
/// order, any batching — e.g. straight from a TraceGenerator sink), then
/// hand the builder to TraceDrivenSim. The same fix multiset produces the
/// same presence table regardless of interleaving, so streaming ingestion
/// is bit-identical to materializing the whole trace first.
class TracePresenceBuilder {
 public:
  /// `region_of_segment` must stay valid for the duration of the add()
  /// calls (it is not copied). `round_s` is the policy-round length.
  TracePresenceBuilder(std::span<const cluster::RegionId> region_of_segment,
                       std::size_t num_vehicles, std::size_t num_regions,
                       double round_s, double trace_duration_s);

  /// Consumes one fix; throws ContractViolation on out-of-range vehicle,
  /// segment, or region ids and on negative or NaN times. Times at or
  /// beyond the last round (infinity included) are skipped.
  void add(const trace::GpsFix& fix);

  std::size_t num_vehicles() const noexcept { return num_vehicles_; }
  std::size_t num_regions() const noexcept { return num_regions_; }
  std::size_t num_rounds() const noexcept { return tally_.size(); }

  /// Presence per round: (vehicle, modal region) pairs ordered by vehicle
  /// id. Consumes the tally; call once.
  std::vector<std::vector<std::pair<trace::VehicleId, core::RegionId>>>
  build() &&;

 private:
  std::span<const cluster::RegionId> region_of_segment_;
  std::size_t num_vehicles_;
  std::size_t num_regions_;
  double round_s_;
  /// round -> vehicle -> (region -> fix count); the modal region wins.
  std::vector<std::map<trace::VehicleId, std::map<core::RegionId, std::size_t>>>
      tally_;
};

struct TraceReplayParams {
  double round_s = 600.0;       // paper: 10-minute rounds
  double revision_rate = 0.8;   // probability a present vehicle revises
  double imitation_scale = 0.5; // imitation prob = scale * fitness gain
  std::uint64_t seed = 321;
};

class TraceDrivenSim {
 public:
  /// `game` must outlive the simulator. `region_of_segment` maps each road
  /// segment to its region (from Algorithm-1 clustering); fixes may be in
  /// any order. Vehicle ids must be < num_vehicles.
  TraceDrivenSim(const core::MultiRegionGame& game,
                 std::span<const trace::GpsFix> fixes,
                 std::span<const cluster::RegionId> region_of_segment,
                 std::size_t num_vehicles, double trace_duration_s,
                 TraceReplayParams params);

  /// Streaming variant: the presence table comes from a builder that was
  /// fed fixes incrementally, so the trace never has to be materialized.
  /// The builder's num_regions must match the game's.
  TraceDrivenSim(const core::MultiRegionGame& game,
                 TracePresenceBuilder&& presence, TraceReplayParams params);

  /// Number of policy rounds covered by the trace.
  std::size_t num_rounds() const noexcept { return presence_.size(); }

  /// Draws every vehicle's initial decision from `state`'s row for the
  /// region of its first present round (row 0 for a vehicle the trace never
  /// shows), one draw per vehicle in vehicle order. `state` must hold one
  /// distribution of num_decisions() entries per region.
  void init_from(const core::GameState& state);

  /// Runs one round at sharing ratios x. Rounds past the trace end reuse
  /// the last round's presence pattern (the fleet keeps circulating).
  void step(std::span<const double> x);

  /// Decision distribution per region among the vehicles present in the
  /// round most recently stepped (dormant regions keep their previous
  /// distribution; initially uniform).
  const core::GameState& empirical_state() const noexcept { return state_; }

  /// Vehicles present in round r (for tests / reporting).
  std::size_t present_vehicles(std::size_t round) const;

  std::size_t current_round() const noexcept { return round_; }

  /// Checkpoint hooks: the round counter, the serial revision RNG (full
  /// stream position), per-vehicle decisions and the published
  /// distributions. The presence tables are rebuilt from the trace at
  /// construction and are not serialized. Call between step()s only;
  /// load_state throws SerialError on a shape or configuration mismatch and
  /// then leaves the simulator as it was.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  const core::MultiRegionGame& game_;
  TraceReplayParams params_;
  Rng rng_;
  /// presence_[round] = list of (vehicle, region where it spent the round).
  std::vector<std::vector<std::pair<trace::VehicleId, core::RegionId>>>
      presence_;
  std::vector<core::DecisionId> decisions_;  // per vehicle
  core::GameState state_;                    // last published distributions
  std::size_t round_ = 0;

  void refresh_state(
      const std::vector<std::pair<trace::VehicleId, core::RegionId>>& present);
};

}  // namespace avcp::sim
