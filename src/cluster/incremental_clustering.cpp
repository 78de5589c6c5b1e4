#include "cluster/incremental_clustering.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace avcp::cluster {

namespace {

double congested_weight(const roadnet::RoadGraph& g, roadnet::SegmentId s,
                        std::int64_t load, double congestion_alpha) {
  return g.segment(s).travel_time_s() *
         (1.0 + congestion_alpha * static_cast<double>(load));
}

}  // namespace

std::vector<double> IncrementalClustering::load_weights(
    const roadnet::RoadGraph& g, std::span<const std::int64_t> loads,
    double congestion_alpha) {
  AVCP_EXPECT(loads.size() == g.num_segments());
  std::vector<double> weights(g.num_segments());
  for (roadnet::SegmentId s = 0; s < g.num_segments(); ++s) {
    AVCP_EXPECT(loads[s] >= 0);
    weights[s] = congested_weight(g, s, loads[s], congestion_alpha);
  }
  return weights;
}

IncrementalClustering::IncrementalClustering(
    const roadnet::RoadGraph& g, IncrementalClusteringOptions opts,
    std::span<const std::int64_t> loads)
    : g_(g),
      opts_(opts),
      loads_(loads.empty() ? std::vector<std::int64_t>(g.num_segments(), 0)
                           : std::vector<std::int64_t>(loads.begin(),
                                                       loads.end())),
      inc_(g, load_weights(g, loads_, opts.congestion_alpha),
           opts.betweenness) {
  AVCP_EXPECT(std::isfinite(opts_.congestion_alpha) &&
              opts_.congestion_alpha >= 0.0);
  clustering_ = cluster_segments(g_, inc_.centrality(), opts_.clustering);
}

IncrementalClustering::RefreshStats IncrementalClustering::apply(
    std::span<const LoadDelta> deltas) {
  RefreshStats stats;
  if (deltas.empty()) return stats;

  // Fold duplicates into a copy of the counts first, then hand the
  // incremental betweenness one final weight per touched segment, in
  // segment-id order so the update is independent of delta ordering. The
  // counts are committed only once the whole batch has been accepted, so a
  // rejected batch leaves loads, centrality and clustering as they were.
  pending_.assign(loads_.begin(), loads_.end());
  touched_.assign(g_.num_segments(), 0);
  for (const LoadDelta& d : deltas) {
    AVCP_EXPECT(d.segment < g_.num_segments());
    pending_[d.segment] += d.delta;
    AVCP_EXPECT(pending_[d.segment] >= 0);
    touched_[d.segment] = 1;
  }
  segments_.clear();
  weights_.clear();
  for (roadnet::SegmentId s = 0; s < g_.num_segments(); ++s) {
    if (touched_[s] == 0) continue;
    segments_.push_back(s);
    weights_.push_back(
        congested_weight(g_, s, pending_[s], opts_.congestion_alpha));
  }

  const auto up = inc_.update_weights(segments_, weights_);
  for (const roadnet::SegmentId s : segments_) loads_[s] = pending_[s];
  stats.segments_changed = up.segments_changed;
  stats.sources_affected = up.sources_affected;
  stats.chunks_recomputed = up.chunks_recomputed;

  // Centrality can only differ from before when a chunk actually re-ran;
  // otherwise clustering over bit-identical coefficients is bit-identical
  // too, so skip Algorithm 1 entirely.
  if (up.chunks_recomputed > 0) {
    clustering_ = cluster_segments(g_, inc_.centrality(), opts_.clustering);
    stats.reclustered = true;
  }
  return stats;
}

void IncrementalClustering::set_loads(std::span<const std::int64_t> loads) {
  AVCP_EXPECT(loads.size() == g_.num_segments());
  for (const std::int64_t load : loads) AVCP_EXPECT(load >= 0);
  segments_.clear();
  weights_.clear();
  for (roadnet::SegmentId s = 0; s < g_.num_segments(); ++s) {
    if (loads[s] == loads_[s]) continue;
    segments_.push_back(s);
    weights_.push_back(
        congested_weight(g_, s, loads[s], opts_.congestion_alpha));
  }
  if (segments_.empty()) return;
  const auto up = inc_.update_weights(segments_, weights_);
  for (const roadnet::SegmentId s : segments_) loads_[s] = loads[s];
  if (up.chunks_recomputed > 0) {
    clustering_ = cluster_segments(g_, inc_.centrality(), opts_.clustering);
  }
}

Clustering IncrementalClustering::scratch(
    const roadnet::RoadGraph& g, std::span<const std::int64_t> loads,
    const IncrementalClusteringOptions& opts) {
  const std::vector<double> weights =
      load_weights(g, loads, opts.congestion_alpha);
  const std::vector<double> coeffs =
      roadnet::segment_betweenness_weighted(g, weights, opts.betweenness);
  return cluster_segments(g, coeffs, opts.clustering);
}

}  // namespace avcp::cluster
