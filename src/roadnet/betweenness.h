// Betweenness centrality of road segments (Eq. (2) of the paper).
//
// The paper measures the importance of a road segment by the fraction of
// shortest paths that traverse it. On the intersection graph this is the
// classical *edge* betweenness, computed here with Brandes' accumulation
// (O(N*M) unweighted, O(N*(M + N log N)) weighted). An optional sampled
// variant trades exactness for speed on large networks, normalising by the
// sampled source count so values stay comparable to the exact ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "roadnet/road_graph.h"

namespace avcp::roadnet {

/// How path length is measured when counting shortest paths.
enum class PathMetric : std::uint8_t {
  kHops = 0,        // unweighted BFS
  kDistance = 1,    // segment length, Dijkstra
  kTravelTime = 2,  // length / speed, Dijkstra
};

struct BetweennessOptions {
  PathMetric metric = PathMetric::kHops;
  /// Normalise by (N-1)(N-2) as in Eq. (2) so values are comparable across
  /// network sizes. When false, raw pair counts are returned.
  bool normalize = true;
  /// Worker threads for the per-source accumulation passes (Brandes is
  /// embarrassingly parallel across sources). 0 = hardware concurrency.
  /// Sources are chunked independently of the thread count and the chunk
  /// partials are reduced in chunk order, so the result is bit-identical at
  /// every thread count (and therefore across machines at the default).
  std::size_t num_threads = 1;
};

/// Exact per-segment betweenness centrality.
std::vector<double> segment_betweenness(const RoadGraph& g,
                                        const BetweennessOptions& opts = {});

/// Approximate betweenness from `num_sources` sampled BFS/Dijkstra roots,
/// rescaled to estimate the exact value. Requires num_sources >= 1.
std::vector<double> sampled_segment_betweenness(
    const RoadGraph& g, std::size_t num_sources, Rng& rng,
    const BetweennessOptions& opts = {});

/// Exact betweenness under caller-supplied per-segment weights (one finite
/// positive weight per segment; Dijkstra path counting with the relative
/// tie tolerance). `opts.metric` is ignored — the weights *are* the metric;
/// normalize / num_threads apply as usual. This is the from-scratch
/// reference for IncrementalBetweenness below: for any weight vector the
/// two agree bit for bit.
std::vector<double> segment_betweenness_weighted(
    const RoadGraph& g, std::span<const double> weights,
    const BetweennessOptions& opts = {});

/// Chunk-cached Brandes for slowly-drifting weights (the service layer's
/// congestion-scaled travel times, which change on a handful of segments
/// per epoch as vehicles join, leave, and migrate).
///
/// The source set is split into the same <= 64 contiguous chunks the batch
/// path uses, and each chunk's partial accumulation is cached together with
/// every source's distance array. update_weights() re-runs only the chunks
/// containing an *affected* source and re-reduces the cached partials in
/// chunk order, so the floating-point summation order — and therefore the
/// centrality, bit for bit — is identical to segment_betweenness_weighted
/// over the current weights at every thread count.
///
/// A source s is provably unaffected by a weight change on segment (a, b)
/// when min(d_s(a), d_s(b)) + min(w_old, w_new) exceeds max(d_s(a), d_s(b))
/// by more than a tolerance window wider than the Dijkstra tie window: the
/// segment was on no counted shortest path before and cannot join (or
/// shorten) one after, so s's whole dependency accumulation is unchanged.
/// The test is conservative (borderline sources recompute needlessly) and
/// applies per changed segment, so any batch of simultaneous changes is
/// sound. Memory: one distance array per intersection (O(N^2) doubles) —
/// sized for the service-scale road graphs, not continental networks —
/// plus one O(N + M) pass workspace per running chunk task.
class IncrementalBetweenness {
 public:
  /// `g` must outlive the object and stay unchanged (weights are the only
  /// mutable input). Computes the initial centrality from scratch.
  IncrementalBetweenness(const RoadGraph& g, std::vector<double> weights,
                         BetweennessOptions opts = {});

  struct UpdateStats {
    std::size_t segments_changed = 0;
    std::size_t sources_affected = 0;
    std::size_t chunks_recomputed = 0;
  };

  /// Applies the weight changes (parallel arrays; later duplicates win) and
  /// refreshes the affected chunks. Entries whose weight is bit-equal to
  /// the current one are ignored.
  UpdateStats update_weights(std::span<const SegmentId> segments,
                             std::span<const double> new_weights);

  /// Current centrality — bit-equal to segment_betweenness_weighted(g,
  /// weights(), opts) at all times.
  const std::vector<double>& centrality() const noexcept {
    return centrality_;
  }

  std::span<const double> weights() const noexcept { return weights_; }
  std::size_t num_chunks() const noexcept { return num_chunks_; }

 private:
  /// Re-runs every chunk flagged in dirty_, one BrandesScratch per chunk
  /// task, writing each source's distances into dists_[source].
  void recompute_chunks();
  void reduce();

  struct Change {
    SegmentId seg;
    double wmin;
  };

  const RoadGraph& g_;
  BetweennessOptions opts_;
  std::vector<double> weights_;
  std::size_t num_chunks_;
  /// Grow-only update_weights scratch: once warmed, a refresh allocates
  /// only the per-chunk pass workspaces, and a no-op refresh (all weights
  /// bit-equal) nothing at all.
  std::vector<Change> changes_;
  std::vector<std::uint8_t> affected_;  // per source
  std::vector<std::uint8_t> dirty_;     // per chunk
  /// partials_[chunk][segment]: the chunk's unscaled accumulation.
  std::vector<std::vector<double>> partials_;
  /// dists_[source][node]: distances of the cached pass from `source`.
  std::vector<std::vector<double>> dists_;
  std::vector<double> centrality_;
  ThreadPool pool_;
};

}  // namespace avcp::roadnet
