// Auxiliary region graph G = (R, E) with data-sharing frequencies gamma
// (paper §IV-A Step 3, Fig. 5).
//
// Vehicles share data only through their edge server, so two *regions* are
// neighbours exactly when some Voronoi cell simultaneously covers vehicles
// of both. The edge weight gamma_ij estimates how often such cross-region
// pairs co-occur: for every reporting window and every cell we count the
// vehicle pairs by region (n_i * n_j across regions, n_i*(n_i-1)/2 within),
// then normalise by trace duration to a pair-rate. gamma_ii is the
// inner-region sharing frequency used in Eq. (4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/region_clustering.h"
#include "spatial/voronoi.h"
#include "trace/types.h"

namespace avcp::cluster {

/// Dense symmetric gamma matrix plus the neighbour structure of G.
class RegionGraph {
 public:
  explicit RegionGraph(std::size_t num_regions);

  std::size_t num_regions() const noexcept { return num_regions_; }

  /// Pair-rate between regions i and j (symmetric; i == j is inner-region).
  double gamma(RegionId i, RegionId j) const;

  /// Regions j != i with gamma(i, j) > 0 — the neighbour set N_i.
  std::span<const RegionId> neighbors(RegionId i) const;

  /// Number of undirected edges (pairs i < j with gamma > 0).
  std::size_t num_edges() const noexcept;

  /// Normalises gamma so its largest entry equals `target_max` — keeps
  /// fitness magnitudes comparable across trace lengths. No-op if all
  /// gammas are zero.
  void rescale_max(double target_max);

  /// Builder access: adds weight to the (i, j) pair-rate.
  void accumulate(RegionId i, RegionId j, double weight);

  /// Recomputes the neighbour lists after accumulation; must be called
  /// before neighbors(). Divides all entries by `normalizer` (> 0), e.g.
  /// the trace duration in seconds.
  void finalize(double normalizer);

 private:
  std::size_t num_regions_;
  std::vector<double> gamma_;  // row-major num_regions x num_regions
  std::vector<std::vector<RegionId>> neighbor_lists_;
  bool finalized_ = false;
};

/// Build inputs: which region and cell each road segment belongs to.
struct RegionGraphInputs {
  std::span<const RegionId> region_of_segment;
  std::span<const spatial::ServerId> cell_of_segment;
  std::size_t num_regions = 0;
  std::size_t num_cells = 0;
  /// Co-presence window; the paper's vehicles report every 10 s.
  double window_s = 10.0;
  double duration_s = 0.0;
};

/// Streaming builder: feed fixes one at a time (any order, any batching),
/// then build(). Memory is linear in the trace length, not constant: one
/// 24-byte record per fix inside the span (half a GpsFix), plus an 8-byte
/// index per record and a counter per window while build() buckets them
/// by window. A vehicle counts once per window, at its earliest fix there
/// (ties to the lowest segment), so the same fix multiset produces the same
/// graph regardless of interleaving.
class RegionGraphAccumulator {
 public:
  /// The spans inside `inputs` must stay valid until build() returns.
  explicit RegionGraphAccumulator(const RegionGraphInputs& inputs);

  /// Consumes one fix. Negative and NaN times are rejected; times at or
  /// beyond the last window (infinity included) are skipped.
  void add(const trace::GpsFix& fix);

  /// Counts the co-presence pairs and finalizes the graph. Call once.
  RegionGraph build();

 private:
  /// One in-span fix, reduced to what co-presence needs.
  struct Presence {
    std::size_t window = 0;
    double time_s = 0.0;
    trace::VehicleId vehicle = 0;
    roadnet::SegmentId segment = roadnet::kInvalidSegment;
  };

  RegionGraphInputs inputs_;
  std::size_t num_windows_;
  std::vector<Presence> presence_;  // in arrival order
};

/// Builds the region graph from a trace. Fixes may arrive in any order.
RegionGraph build_region_graph(std::span<const trace::GpsFix> fixes,
                               const RegionGraphInputs& inputs);

}  // namespace avcp::cluster
