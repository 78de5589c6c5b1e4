// Shortest-path routing over the road network.
//
// Used by the trace generator (vehicles drive shortest-travel-time routes
// between sampled origin/destination intersections) and by tests as the
// brute-force oracle for betweenness centrality. One search yields the
// shortest-path tree of its origin; a route to any destination is a walk
// up that tree, so callers routing many trips from one origin (the trace
// generator) search once per origin rather than once per trip.
#pragma once

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

/// Walks `tree` (grown from `from` under `metric`) from `to` back to the
/// origin into `route`, reusing its storage; `route.cost` sums the segment
/// costs from the origin outwards, the order the search accumulates them in,
/// so it equals shortest_costs(g, from, metric)[to] bit for bit. Returns
/// false, leaving `route` untouched, when `to` is unreachable.
bool route_from_tree(const RoadGraph& g, std::span<const Hop> tree,
                     NodeId from, NodeId to, PathMetric metric, Route& route);

}  // namespace avcp::roadnet
