#include "roadnet/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/contracts.h"

namespace avcp::roadnet {

namespace {

double hop_cost(const RoadGraph& g, SegmentId s, PathMetric metric) {
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

struct SearchResult {
  std::vector<double> dist;
  std::vector<Hop> parent;  // parent[v] = {segment into v, previous node}
};

SearchResult dijkstra(const RoadGraph& g, NodeId from, PathMetric metric) {
  AVCP_EXPECT(g.finalized());
  AVCP_EXPECT(from < g.num_intersections());
  const std::size_t n = g.num_intersections();
  SearchResult res;
  res.dist.assign(n, std::numeric_limits<double>::infinity());
  res.parent.assign(n, Hop{});
  res.dist[from] = 0.0;

  // Every push follows a relaxation of one directed segment, so the heap
  // never holds more than 1 + 2 * segments entries: reserving that bound
  // grows it once per search.
  using Entry = std::pair<double, NodeId>;
  std::vector<Entry> storage;
  storage.reserve(1 + 2 * g.num_segments());
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  heap.emplace(0.0, from);
  std::vector<bool> settled(n, false);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (settled[v]) continue;
    settled[v] = true;
    for (const Hop& hop : g.neighbors(v)) {
      const double nd = d + hop_cost(g, hop.segment, metric);
      if (nd < res.dist[hop.node]) {
        res.dist[hop.node] = nd;
        res.parent[hop.node] = Hop{hop.segment, v};
        heap.emplace(nd, hop.node);
      }
    }
  }
  return res;
}

}  // namespace

std::vector<Hop> shortest_path_tree(const RoadGraph& g, NodeId from,
                                    PathMetric metric) {
  return dijkstra(g, from, metric).parent;
}

bool route_from_tree(const RoadGraph& g, std::span<const Hop> tree,
                     NodeId from, NodeId to, PathMetric metric, Route& route) {
  AVCP_EXPECT(tree.size() == g.num_intersections());
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
  for (const SegmentId s : route.segments) route.cost += hop_cost(g, s, metric);
  return true;
}

std::optional<Route> shortest_path(const RoadGraph& g, NodeId from, NodeId to,
                                   PathMetric metric) {
  AVCP_EXPECT(to < g.num_intersections());
  const std::vector<Hop> tree = shortest_path_tree(g, from, metric);
  Route route;
  if (!route_from_tree(g, tree, from, to, metric, route)) return std::nullopt;
  return route;
}

std::vector<double> shortest_costs(const RoadGraph& g, NodeId from,
                                   PathMetric metric) {
  return dijkstra(g, from, metric).dist;
}

}  // namespace avcp::roadnet
