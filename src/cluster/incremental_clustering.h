// Incrementally maintained region clustering for the service layer.
//
// The batch pipeline computes betweenness once and clusters once. A
// long-running service instead sees a drifting load picture: vehicles join,
// leave, and migrate, changing the per-segment congestion and therefore the
// effective travel-time weights that betweenness (and through it Algorithm
// 1's utility coefficients) are computed from. IncrementalClustering owns
// that loop: it folds load deltas into per-segment vehicle counts, maps
// counts to weights via a congestion-scaled travel time, refreshes Brandes
// centrality through IncrementalBetweenness (chunk-cached, so only affected
// source chunks re-run), and re-runs Algorithm 1 only when the centrality
// actually moved.
//
// Contract: after any sequence of apply() calls, clustering() and
// centrality() are bit-equal to the from-scratch scratch() computation over
// the same loads, at every thread count. The property test in
// tests/service_recluster_test.cpp locks this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/region_clustering.h"
#include "roadnet/betweenness.h"
#include "roadnet/road_graph.h"

namespace avcp::cluster {

struct IncrementalClusteringOptions {
  ClusteringOptions clustering;
  /// Thread count / normalization for the centrality passes. The metric
  /// field is ignored: weights are always the congestion-scaled travel
  /// times below.
  roadnet::BetweennessOptions betweenness;
  /// weight(s) = travel_time_s(s) * (1 + congestion_alpha * load(s)).
  /// 0 decouples clustering from load entirely (weights never change, so
  /// apply() never re-clusters — the zero-churn service configuration).
  double congestion_alpha = 0.0;
};

/// A change in the number of vehicles currently on a segment.
struct LoadDelta {
  roadnet::SegmentId segment = 0;
  std::int32_t delta = 0;  // vehicles entering (+) or leaving (-)
};

class IncrementalClustering {
 public:
  /// Starts from `loads` (one non-negative count per segment; empty means
  /// all zero): the state set_loads(loads) would leave on a zero-load
  /// object, for one betweenness pass instead of two. `g` must outlive the
  /// object.
  IncrementalClustering(const roadnet::RoadGraph& g,
                        IncrementalClusteringOptions opts = {},
                        std::span<const std::int64_t> loads = {});

  struct RefreshStats {
    std::size_t segments_changed = 0;
    std::size_t sources_affected = 0;
    std::size_t chunks_recomputed = 0;
    bool reclustered = false;
  };

  /// Folds the deltas into the load counts (duplicates accumulate; a
  /// segment's running count must never go negative) and refreshes
  /// centrality and clustering. A rejected batch changes nothing.
  RefreshStats apply(std::span<const LoadDelta> deltas);

  /// Replaces every load count at once (checkpoint restore). The refreshed
  /// state is identical to a fresh object constructed over these loads. A
  /// rejected vector changes nothing.
  void set_loads(std::span<const std::int64_t> loads);

  const Clustering& clustering() const noexcept { return clustering_; }
  const std::vector<double>& centrality() const noexcept {
    return inc_.centrality();
  }
  std::span<const std::int64_t> loads() const noexcept { return loads_; }
  const roadnet::RoadGraph& graph() const noexcept { return g_; }

  /// From-scratch reference: full Brandes over the congestion-scaled
  /// weights, then Algorithm 1 — the equivalence target for apply().
  static Clustering scratch(const roadnet::RoadGraph& g,
                            std::span<const std::int64_t> loads,
                            const IncrementalClusteringOptions& opts);

  /// The weight vector scratch() and the incremental path both use.
  static std::vector<double> load_weights(
      const roadnet::RoadGraph& g, std::span<const std::int64_t> loads,
      double congestion_alpha);

 private:
  const roadnet::RoadGraph& g_;
  IncrementalClusteringOptions opts_;
  std::vector<std::int64_t> loads_;
  roadnet::IncrementalBetweenness inc_;
  Clustering clustering_;
  /// Grow-only apply() / set_loads() scratch: steady-state refreshes that
  /// end up changing no weight (e.g. congestion_alpha == 0) allocate
  /// nothing. pending_ holds the counts of a batch until it is accepted.
  std::vector<std::int64_t> pending_;
  std::vector<std::uint8_t> touched_;
  std::vector<roadnet::SegmentId> segments_;
  std::vector<double> weights_;
};

}  // namespace avcp::cluster
