// Shortest-path routing over the road network.
//
// Used by the trace generator: vehicles drive shortest-travel-time routes
// between sampled origin/destination intersections. One search yields the
// shortest-path tree of its origin; a route to any destination is a walk
// up that tree, so callers routing many trips from one origin (the trace
// generator) search once per origin rather than once per trip.
//
// Every search here is Dijkstra on the flat adjacency and branch-free heap
// the Brandes pass uses (the library has one Dijkstra heap): it settles
// intersections in ascending (cost, id) order and takes a parent on strict
// improvement only, so a tree is the one any exact priority-queue Dijkstra
// with that rule grows, bit for bit. Segment costs must not be negative,
// and RoadGraph's never are; a NaN or infinite cost never relaxes.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "roadnet/betweenness.h"
#include "roadnet/road_graph.h"

namespace avcp::roadnet {

/// A route: the intersections visited and the segments traversed
/// (segments.size() == nodes.size() - 1).
struct Route {
  std::vector<NodeId> nodes;
  std::vector<SegmentId> segments;
  double cost = 0.0;  // total metric cost (hops, metres, or seconds)

  bool empty() const noexcept { return nodes.empty(); }
};

/// Single-pair shortest path; nullopt when `to` is unreachable from `from`.
std::optional<Route> shortest_path(const RoadGraph& g, NodeId from, NodeId to,
                                   PathMetric metric = PathMetric::kTravelTime);

/// Single-source costs to every intersection (infinity if unreachable).
std::vector<double> shortest_costs(const RoadGraph& g, NodeId from,
                                   PathMetric metric = PathMetric::kTravelTime);

/// Shortest-path tree of `from`: entry v is {segment into v, previous
/// intersection} on the route shortest_path takes to v; the origin and
/// unreachable intersections hold Hop{}.
std::vector<Hop> shortest_path_tree(
    const RoadGraph& g, NodeId from,
    PathMetric metric = PathMetric::kTravelTime);

/// Repeated searches over one graph and metric, for callers that grow many
/// trees and walk many routes (the trace generator grows one tree per trip
/// origin). Construction flattens the adjacency and computes every
/// segment's cost once; each grow() then reuses the cost array and the
/// heap, so a search allocates nothing once its output is sized. The free
/// functions above are one search each. The graph must be finalized and
/// outlive the search.
class ShortestPathSearch {
 public:
  ShortestPathSearch(const RoadGraph& g, PathMetric metric);
  ~ShortestPathSearch();

  /// Grows the tree of `from` into `tree` (resized to one entry per
  /// intersection), equal to shortest_path_tree(g, from, metric).
  void grow(NodeId from, std::vector<Hop>& tree);

  /// The last grow()'s costs from its origin to every intersection,
  /// infinity where unreachable: shortest_costs(g, from, metric).
  std::span<const double> costs() const noexcept;

  /// Walks `tree` (grown from `from` by this search) from `to` back to the
  /// origin into `route`, reusing its storage; `route.cost` sums the
  /// segment costs from the origin outwards, the order the search
  /// accumulates them in, so it equals costs()[to] of that search bit for
  /// bit. Returns false, leaving `route` untouched, when `to` is
  /// unreachable.
  bool route(std::span<const Hop> tree, NodeId from, NodeId to,
             Route& route) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace avcp::roadnet
