// Synthetic vehicle trace generation.
//
// Substitutes for the Shenzhen taxi/transit GPS dataset (DESIGN.md §1).
// Each vehicle alternates between dwelling and driving trips: destinations
// are sampled with attraction proportional to the road hierarchy around an
// intersection (arterials attract more trips, reproducing the heavy-tailed
// per-segment traffic the paper's TD clustering depends on), routes follow
// shortest travel time, and a GPS fix is emitted every `fix_interval_s`.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "roadnet/road_graph.h"
#include "trace/types.h"

namespace avcp::trace {

/// Trace-generation parameters.
struct TraceParams {
  std::uint32_t num_vehicles = 500;
  double duration_s = 4 * 3600.0;  // simulated span
  double fix_interval_s = 10.0;    // paper: vehicles report every 10 s
  /// Mean dwell between trips, seconds (exponential).
  double mean_dwell_s = 300.0;
  /// Per-vehicle speed factor is drawn uniformly from this range and
  /// multiplies segment free-flow speed.
  double speed_factor_lo = 0.7;
  double speed_factor_hi = 1.1;
  /// Trip-attraction weight per road class incident to an intersection.
  double arterial_weight = 4.0;
  double collector_weight = 2.0;
  double local_weight = 1.0;
  std::uint64_t seed = 7;
};

/// Streaming sink for generated fixes. Fixes for a given vehicle arrive in
/// nondecreasing time order; vehicles are generated one after another.
using FixSink = std::function<void(const GpsFix&)>;

class TraceGenerator {
 public:
  /// The road graph must be finalized and outlive the generator.
  TraceGenerator(const roadnet::RoadGraph& graph, TraceParams params);

  /// Generates the full trace into a sink. Memory is independent of the
  /// trace length: besides one route and one routing search (a flat copy
  /// of the adjacency with its travel times and heap, about 72 bytes per
  /// segment and 12 per intersection), a call holds the shortest-path
  /// tree of every origin it has routed from (at most one per
  /// intersection, 8 bytes per intersection each), all freed on return.
  void generate(const FixSink& sink) const;

  /// Convenience: materialises the whole trace, ordered by vehicle then time.
  std::vector<GpsFix> generate_all() const;

  /// Trip-attraction weight of each intersection (exposed for tests).
  const std::vector<double>& attraction() const noexcept { return attraction_; }

 private:
  const roadnet::RoadGraph& graph_;
  TraceParams params_;
  std::vector<double> attraction_;

  struct Router;  // routing state of one generate() call

  void generate_vehicle(VehicleId id, Rng& rng,
                        const WeightedIndexSampler& destination,
                        Router& router, const FixSink& sink) const;
};

}  // namespace avcp::trace
