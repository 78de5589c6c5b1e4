#include "roadnet/betweenness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/contracts.h"
#include "common/thread_pool.h"

namespace avcp::roadnet {

namespace {

double edge_weight(const RoadGraph& g, SegmentId s, PathMetric metric) {
  switch (metric) {
    case PathMetric::kHops:
      return 1.0;
    case PathMetric::kDistance:
      return g.segment(s).length_m;
    case PathMetric::kTravelTime:
      return g.segment(s).travel_time_s();
  }
  return 1.0;
}

/// Reusable workspace of one Brandes pass, sized once from the graph so a
/// pass never reallocates. A chunk task builds one and reuses it for every
/// source of its chunk, so scratch memory is bounded by the running lanes.
struct BrandesScratch {
  explicit BrandesScratch(const RoadGraph& g) {
    const std::size_t n = g.num_intersections();
    dist.resize(n);
    sigma.resize(n);
    delta.resize(n);
    pred_begin.resize(n);
    pred_count.resize(n);
    std::size_t degree_sum = 0;
    for (NodeId v = 0; v < n; ++v) {
      pred_begin[v] = static_cast<std::uint32_t>(degree_sum);
      degree_sum += g.neighbors(v).size();
    }
    pred_hops.resize(degree_sum);
    order.reserve(n);
    heap.reserve(1 + degree_sum);
    settled.resize(n);
  }

  /// Distances, for callers that do not keep them (the batch path).
  std::vector<double> dist;
  std::vector<double> sigma;  // shortest-path counts
  std::vector<double> delta;  // dependencies
  /// Predecessor slots laid out CSR over the adjacency: node w's
  /// predecessors are pred_hops[pred_begin[w], pred_begin[w] +
  /// pred_count[w]). A pass relaxes each directed segment once, so w
  /// receives at most degree(w) of them.
  std::vector<std::uint32_t> pred_begin;
  std::vector<std::uint32_t> pred_count;
  std::vector<Hop> pred_hops;
  /// Nodes in settle order (nondecreasing distance); the BFS queue too.
  std::vector<NodeId> order;
  /// Dijkstra's binary min-heap over (dist, node), driven by
  /// std::push_heap / std::pop_heap with std::greater<>. A node is pushed
  /// again only with a strictly smaller dist, so no two entries tie and
  /// the keys alone fix the settle order. One push per strict improvement
  /// plus the source bounds it by 1 + the sum of degrees.
  std::vector<std::pair<double, NodeId>> heap;
  std::vector<std::uint8_t> settled;
};

/// One Brandes accumulation pass from `source`, adding each segment's
/// pair-dependency into `centrality`. An empty `weights` span selects the
/// unweighted BFS path (the kHops metric); otherwise weights[segment] is
/// the segment's traversal cost (Dijkstra). The pass's distances land in
/// `dist` (n entries): scratch.dist, or IncrementalBetweenness's cached
/// array for the source, which it reads for affected-source detection.
void accumulate_from_source(const RoadGraph& g, NodeId source,
                            std::span<const double> weights,
                            std::span<double> dist, BrandesScratch& scratch,
                            std::vector<double>& centrality) {
  std::vector<double>& sigma = scratch.sigma;
  std::vector<double>& delta = scratch.delta;
  const std::vector<std::uint32_t>& pred_begin = scratch.pred_begin;
  std::vector<std::uint32_t>& pred_count = scratch.pred_count;
  std::vector<Hop>& pred_hops = scratch.pred_hops;
  std::vector<NodeId>& order = scratch.order;
  std::fill(dist.begin(), dist.end(), std::numeric_limits<double>::infinity());
  std::fill(sigma.begin(), sigma.end(), 0.0);
  std::fill(delta.begin(), delta.end(), 0.0);
  std::fill(pred_count.begin(), pred_count.end(), 0u);
  order.clear();

  dist[source] = 0.0;
  sigma[source] = 1.0;

  if (weights.empty()) {
    order.push_back(source);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      for (const Hop& hop : g.neighbors(v)) {
        const NodeId w = hop.node;
        if (dist[w] == std::numeric_limits<double>::infinity()) {
          dist[w] = dist[v] + 1.0;
          order.push_back(w);
        }
        if (dist[w] == dist[v] + 1.0) {
          sigma[w] += sigma[v];
          pred_hops[pred_begin[w] + pred_count[w]++] = Hop{hop.segment, v};
        }
      }
    }
  } else {
    auto& heap = scratch.heap;
    std::vector<std::uint8_t>& settled = scratch.settled;
    std::fill(settled.begin(), settled.end(), std::uint8_t{0});
    heap.clear();
    heap.emplace_back(0.0, source);
    // Tie tolerance *relative* to the candidate distance: equal-cost paths
    // accumulated through different chains drift apart by O(eps * length),
    // so a fixed absolute window both misses ties on km-scale distance /
    // travel-time weights (drift > window) and merges genuinely distinct
    // path lengths on tiny ones. 1e-12 relative sits far above the few-ulp
    // drift of any realistic chain and far below any real length gap.
    constexpr double kTieTolRel = 1e-12;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, v] = heap.back();
      heap.pop_back();
      if (settled[v] != 0) continue;
      settled[v] = 1;
      order.push_back(v);
      for (const Hop& hop : g.neighbors(v)) {
        const NodeId w = hop.node;
        const double nd = d + weights[hop.segment];
        const double tol = kTieTolRel * nd;  // dist[w] may be +inf
        if (nd < dist[w] - tol) {
          dist[w] = nd;
          sigma[w] = sigma[v];
          pred_hops[pred_begin[w]] = Hop{hop.segment, v};
          pred_count[w] = 1;
          heap.emplace_back(nd, w);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        } else if (std::abs(nd - dist[w]) <= tol && settled[w] == 0) {
          sigma[w] += sigma[v];
          pred_hops[pred_begin[w] + pred_count[w]++] = Hop{hop.segment, v};
        }
      }
    }
  }

  // Back-propagate dependencies in reverse settle order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId w = *it;
    const Hop* preds = pred_hops.data() + pred_begin[w];
    for (std::uint32_t p = 0; p < pred_count[w]; ++p) {
      const Hop& pred = preds[p];
      const double share = sigma[pred.node] / sigma[w] * (1.0 + delta[w]);
      centrality[pred.segment] += share;
      delta[pred.node] += share;
    }
  }
}

/// Per-segment traversal cost vector for a metric; empty for kHops (which
/// runs the BFS path). Hoisting the weights out of the per-source loop
/// computes each segment's cost once instead of per (source, visit) — the
/// values are identical doubles, so results are unchanged bit for bit.
std::vector<double> metric_weights(const RoadGraph& g, PathMetric metric) {
  std::vector<double> weights;
  if (metric == PathMetric::kHops) return weights;
  weights.resize(g.num_segments());
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    weights[s] = edge_weight(g, s, metric);
  }
  return weights;
}

/// Chunk partition shared by the batch and incremental paths: boundaries
/// depend only on the source count, never the thread count.
constexpr std::size_t kMaxChunks = 64;

std::size_t chunk_count(std::size_t num_sources) {
  return std::min<std::size_t>(kMaxChunks, std::max<std::size_t>(1, num_sources));
}

/// Normalization factor shared by every entry point. Undirected graph: each
/// pair (s, t) is visited from both endpoints.
double norm_factor(const RoadGraph& g, const BetweennessOptions& opts) {
  double norm = 2.0;
  if (opts.normalize) {
    const auto n = static_cast<double>(g.num_intersections());
    if (n > 2.0) norm *= (n - 1.0) * (n - 2.0);
  }
  return norm;
}

std::vector<double> betweenness_from_sources(
    const RoadGraph& g, std::span<const NodeId> sources, double scale,
    const BetweennessOptions& opts, std::span<const double> weights) {
  std::size_t num_threads = opts.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, std::max<std::size_t>(1, sources.size()));

  // Sources are split into contiguous chunks whose boundaries depend only
  // on the source count — never on the thread count — and each chunk
  // accumulates its own partial in source order. The partials are then
  // reduced on this thread in chunk order, so the floating-point summation
  // order (and therefore the returned centrality, bit for bit) is invariant
  // to how many threads ran the chunks. The old strided partition re-split
  // the sum by thread count, so the default (hardware_concurrency) gave
  // different last-ulp results on different machines.
  const std::size_t num_chunks = chunk_count(sources.size());
  std::vector<std::vector<double>> partials(
      num_chunks, std::vector<double>(g.num_segments(), 0.0));
  ThreadPool pool(num_threads);
  pool.parallel_for(0, num_chunks, [&](std::size_t c) {
    const std::size_t begin = sources.size() * c / num_chunks;
    const std::size_t end = sources.size() * (c + 1) / num_chunks;
    BrandesScratch scratch(g);
    for (std::size_t s = begin; s < end; ++s) {
      accumulate_from_source(g, sources[s], weights, scratch.dist, scratch,
                             partials[c]);
    }
  });
  std::vector<double> centrality(g.num_segments(), 0.0);
  for (const auto& partial : partials) {
    for (std::size_t i = 0; i < centrality.size(); ++i) {
      centrality[i] += partial[i];
    }
  }
  const double norm = norm_factor(g, opts);
  for (double& c : centrality) c = c * scale / norm;
  return centrality;
}

void check_weights(const RoadGraph& g, std::span<const double> weights) {
  AVCP_EXPECT(weights.size() == g.num_segments());
  for (const double w : weights) {
    AVCP_EXPECT(std::isfinite(w) && w > 0.0);
  }
}

}  // namespace

std::vector<double> segment_betweenness(const RoadGraph& g,
                                        const BetweennessOptions& opts) {
  AVCP_EXPECT(g.finalized());
  std::vector<NodeId> sources(g.num_intersections());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<NodeId>(i);
  }
  const std::vector<double> weights = metric_weights(g, opts.metric);
  return betweenness_from_sources(g, sources, 1.0, opts, weights);
}

std::vector<double> sampled_segment_betweenness(
    const RoadGraph& g, std::size_t num_sources, Rng& rng,
    const BetweennessOptions& opts) {
  AVCP_EXPECT(g.finalized());
  AVCP_EXPECT(num_sources >= 1);
  const std::size_t n = g.num_intersections();
  num_sources = std::min(num_sources, n);

  // Sample sources without replacement (partial Fisher-Yates).
  std::vector<NodeId> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i < num_sources; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(n) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(num_sources);

  const double scale =
      static_cast<double>(n) / static_cast<double>(num_sources);
  const std::vector<double> weights = metric_weights(g, opts.metric);
  return betweenness_from_sources(g, pool, scale, opts, weights);
}

std::vector<double> segment_betweenness_weighted(
    const RoadGraph& g, std::span<const double> weights,
    const BetweennessOptions& opts) {
  AVCP_EXPECT(g.finalized());
  check_weights(g, weights);
  std::vector<NodeId> sources(g.num_intersections());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<NodeId>(i);
  }
  return betweenness_from_sources(g, sources, 1.0, opts, weights);
}

IncrementalBetweenness::IncrementalBetweenness(const RoadGraph& g,
                                               std::vector<double> weights,
                                               BetweennessOptions opts)
    : g_(g),
      opts_(opts),
      weights_(std::move(weights)),
      num_chunks_(chunk_count(g.num_intersections())),
      partials_(num_chunks_),
      dists_(g.num_intersections(),
             std::vector<double>(g.num_intersections())),
      centrality_(g.num_segments(), 0.0),
      pool_(std::min<std::size_t>(
          ThreadPool::clamped_lanes(opts.num_threads),
          std::max<std::size_t>(1, g.num_intersections()))) {
  AVCP_EXPECT(g_.finalized());
  AVCP_EXPECT(g_.num_intersections() >= 1);
  check_weights(g_, weights_);
  dirty_.assign(num_chunks_, 1);
  recompute_chunks();
  reduce();
}

IncrementalBetweenness::UpdateStats IncrementalBetweenness::update_weights(
    std::span<const SegmentId> segments, std::span<const double> new_weights) {
  AVCP_EXPECT(segments.size() == new_weights.size());

  // Apply sequentially so later duplicates win, capturing min(old, new) per
  // applied change: a source unaffected by every individual change (no
  // counted path could shorten or be joined) has bit-identical distances
  // after each one in turn, so the per-change test composes over the batch.
  std::vector<Change>& changes = changes_;
  changes.clear();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentId s = segments[i];
    AVCP_EXPECT(s < g_.num_segments());
    const double w = new_weights[i];
    AVCP_EXPECT(std::isfinite(w) && w > 0.0);
    const double old = weights_[s];
    if (std::bit_cast<std::uint64_t>(old) == std::bit_cast<std::uint64_t>(w)) {
      continue;
    }
    changes.push_back({s, std::min(old, w)});
    weights_[s] = w;
  }

  UpdateStats stats;
  stats.segments_changed = changes.size();
  if (changes.empty()) return stats;

  // Conservative affected-source test against the cached distances. The
  // window is deliberately wider than the Dijkstra tie tolerance (1e-12
  // relative): a borderline source recomputes needlessly, but a source
  // skipped here provably contributed the same partial.
  constexpr double kAffectTolRel = 1e-9;
  const std::size_t n = g_.num_intersections();
  std::vector<std::uint8_t>& affected = affected_;
  affected.assign(n, 0);
  for (std::size_t src = 0; src < n; ++src) {
    const std::vector<double>& dist = dists_[src];
    for (const Change& ch : changes) {
      const RoadSegment& seg = g_.segment(ch.seg);
      const double da = dist[seg.from];
      const double db = dist[seg.to];
      const double lo = std::min(da, db);
      if (lo == std::numeric_limits<double>::infinity()) continue;
      const double hi = std::max(da, db);
      const double cand = lo + ch.wmin;
      if (cand <= hi + kAffectTolRel * std::max(std::abs(hi), cand)) {
        affected[src] = 1;
        break;
      }
    }
  }

  std::vector<std::uint8_t>& dirty = dirty_;
  dirty.assign(num_chunks_, 0);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    const std::size_t begin = n * c / num_chunks_;
    const std::size_t end = n * (c + 1) / num_chunks_;
    for (std::size_t s = begin; s < end; ++s) {
      if (affected[s] != 0) {
        dirty[c] = 1;
        break;
      }
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    stats.sources_affected += affected[s];
  }
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    stats.chunks_recomputed += dirty[c];
  }
  if (stats.chunks_recomputed == 0) return stats;

  recompute_chunks();
  reduce();
  return stats;
}

void IncrementalBetweenness::recompute_chunks() {
  const std::size_t n = g_.num_intersections();
  pool_.parallel_for(0, num_chunks_, [&](std::size_t c) {
    if (dirty_[c] == 0) return;
    std::vector<double>& partial = partials_[c];
    partial.assign(g_.num_segments(), 0.0);
    BrandesScratch scratch(g_);
    const std::size_t begin = n * c / num_chunks_;
    const std::size_t end = n * (c + 1) / num_chunks_;
    for (std::size_t s = begin; s < end; ++s) {
      accumulate_from_source(g_, static_cast<NodeId>(s), weights_, dists_[s],
                             scratch, partial);
    }
  });
}

void IncrementalBetweenness::reduce() {
  // Same reduction and normalization order as betweenness_from_sources with
  // scale = 1.0, so the result is bit-equal to the from-scratch path.
  std::fill(centrality_.begin(), centrality_.end(), 0.0);
  for (const auto& partial : partials_) {
    for (std::size_t i = 0; i < centrality_.size(); ++i) {
      centrality_[i] += partial[i];
    }
  }
  const double norm = norm_factor(g_, opts_);
  for (double& c : centrality_) c = c * 1.0 / norm;
}

}  // namespace avcp::roadnet
