#include "roadnet/shortest_path.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/contracts.h"
#include "roadnet/flat_search.h"

namespace avcp::roadnet {

struct ShortestPathSearch::State {
  State(const RoadGraph& g, std::vector<double> segment_costs)
      : cost(std::move(segment_costs)), adj(g, cost) {
    dist.resize(g.num_intersections());
    heap.reserve(1 + adj.arcs.size());
  }

  std::vector<double> cost;  // by segment
  FlatAdjacency adj;         // arc weights copied from `cost`
  std::vector<double> dist;  // of the last search
  std::vector<HeapKey> heap;
};

ShortestPathSearch::ShortestPathSearch(const RoadGraph& g, PathMetric metric) {
  AVCP_EXPECT(g.finalized());
  std::vector<double> cost(g.num_segments());
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    cost[s] = segment_cost(g, s, metric);
  }
  state_ = std::make_unique<State>(g, std::move(cost));
}

ShortestPathSearch::~ShortestPathSearch() = default;

void ShortestPathSearch::grow(NodeId from, std::vector<Hop>& tree) {
  const FlatAdjacency& adj = state_->adj;
  std::vector<double>& dist = state_->dist;
  std::vector<HeapKey>& heap = state_->heap;
  AVCP_EXPECT(from < dist.size());
  std::fill(dist.begin(), dist.end(), std::numeric_limits<double>::infinity());
  tree.assign(dist.size(), Hop{});
  dist[from] = 0.0;
  heap.clear();
  heap.push_back(HeapKey{std::bit_cast<std::uint64_t>(0.0), from});
  while (!heap.empty()) {
    const HeapKey top = heap_pop(heap);
    const NodeId v = top.node;
    // A node's entries carry strictly decreasing distances, and the one
    // equal to dist[v] pops first, settling v; the rest are stale.
    if (top.dist_bits != std::bit_cast<std::uint64_t>(dist[v])) continue;
    const double d = dist[v];
    for (std::uint32_t a = adj.begin[v]; a < adj.begin[v + 1]; ++a) {
      const Hop hop = adj.arcs[a];
      const double nd = d + adj.weight[a];
      if (nd < dist[hop.node]) {
        dist[hop.node] = nd;
        tree[hop.node] = Hop{hop.segment, v};
        heap_push(heap, HeapKey{std::bit_cast<std::uint64_t>(nd), hop.node});
      }
    }
  }
}

std::span<const double> ShortestPathSearch::costs() const noexcept {
  return state_->dist;
}

bool ShortestPathSearch::route(std::span<const Hop> tree, NodeId from,
                               NodeId to, Route& route) const {
  AVCP_EXPECT(tree.size() == state_->dist.size());
  AVCP_EXPECT(from < tree.size() && to < tree.size());
  if (to != from && tree[to].segment == kInvalidSegment) return false;
  route.nodes.clear();
  route.segments.clear();
  NodeId cursor = to;
  route.nodes.push_back(cursor);
  while (cursor != from) {
    const Hop& hop = tree[cursor];
    AVCP_EXPECT(hop.segment != kInvalidSegment);  // a tree of another origin
    route.segments.push_back(hop.segment);
    cursor = hop.node;
    route.nodes.push_back(cursor);
  }
  std::reverse(route.nodes.begin(), route.nodes.end());
  std::reverse(route.segments.begin(), route.segments.end());
  // The search set dist[v] = dist[parent] + cost(segment) along the tree,
  // so summing outwards from 0 repeats its additions exactly.
  route.cost = 0.0;
  for (const SegmentId s : route.segments) route.cost += state_->cost[s];
  return true;
}

std::vector<Hop> shortest_path_tree(const RoadGraph& g, NodeId from,
                                    PathMetric metric) {
  std::vector<Hop> tree;
  ShortestPathSearch(g, metric).grow(from, tree);
  return tree;
}

std::optional<Route> shortest_path(const RoadGraph& g, NodeId from, NodeId to,
                                   PathMetric metric) {
  AVCP_EXPECT(to < g.num_intersections());
  ShortestPathSearch search(g, metric);
  std::vector<Hop> tree;
  search.grow(from, tree);
  Route route;
  if (!search.route(tree, from, to, route)) return std::nullopt;
  return route;
}

std::vector<double> shortest_costs(const RoadGraph& g, NodeId from,
                                   PathMetric metric) {
  ShortestPathSearch search(g, metric);
  std::vector<Hop> tree;
  search.grow(from, tree);
  const std::span<const double> costs = search.costs();
  return {costs.begin(), costs.end()};
}

}  // namespace avcp::roadnet
