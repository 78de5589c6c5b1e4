#include "roadnet/shortest_path.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "roadnet/builders.h"

namespace avcp::roadnet {
namespace {

TEST(ShortestPath, LineEndToEnd) {
  const RoadGraph g = make_line(5, 100.0);
  const auto route = shortest_path(g, 0, 4, PathMetric::kHops);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->cost, 4.0);
  ASSERT_EQ(route->nodes.size(), 5u);
  ASSERT_EQ(route->segments.size(), 4u);
  EXPECT_EQ(route->nodes.front(), 0u);
  EXPECT_EQ(route->nodes.back(), 4u);
}

TEST(ShortestPath, SameNodeIsEmptyRoute) {
  const RoadGraph g = make_line(3);
  const auto route = shortest_path(g, 1, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->cost, 0.0);
  EXPECT_EQ(route->segments.size(), 0u);
  ASSERT_EQ(route->nodes.size(), 1u);
}

TEST(ShortestPath, DistanceMetricOnLine) {
  const RoadGraph g = make_line(4, 250.0);
  const auto route = shortest_path(g, 0, 3, PathMetric::kDistance);
  ASSERT_TRUE(route.has_value());
  EXPECT_NEAR(route->cost, 750.0, 1e-9);
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  RoadGraph g;
  const NodeId a = g.add_intersection(PointM{0.0, 0.0});
  const NodeId b = g.add_intersection(PointM{1.0, 0.0});
  g.add_intersection(PointM{5.0, 0.0});  // disconnected node 2
  g.add_segment(a, b, RoadClass::kLocal);
  g.finalize();
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
}

TEST(ShortestPath, PicksFasterLongerRoadUnderTravelTime) {
  RoadGraph g;
  const NodeId a = g.add_intersection(PointM{0.0, 0.0});
  const NodeId b = g.add_intersection(PointM{1000.0, 0.0});
  const NodeId m = g.add_intersection(PointM{500.0, 400.0});
  g.add_segment(a, b, RoadClass::kLocal, 2.0);        // 500 s direct
  g.add_segment(a, m, RoadClass::kArterial, 30.0);    // fast detour
  g.add_segment(m, b, RoadClass::kArterial, 30.0);
  g.finalize();

  const auto by_time = shortest_path(g, a, b, PathMetric::kTravelTime);
  ASSERT_TRUE(by_time.has_value());
  EXPECT_EQ(by_time->segments.size(), 2u);  // takes the arterial detour

  const auto by_hops = shortest_path(g, a, b, PathMetric::kHops);
  ASSERT_TRUE(by_hops.has_value());
  EXPECT_EQ(by_hops->segments.size(), 1u);  // direct edge
}

TEST(ShortestPath, RouteSegmentsJoinConsecutiveNodes) {
  const RoadGraph g = make_grid(4, 4);
  const auto route = shortest_path(g, 0, 15, PathMetric::kDistance);
  ASSERT_TRUE(route.has_value());
  ASSERT_EQ(route->segments.size(), route->nodes.size() - 1);
  for (std::size_t i = 0; i < route->segments.size(); ++i) {
    const RoadSegment& seg = g.segment(route->segments[i]);
    const NodeId u = route->nodes[i];
    const NodeId v = route->nodes[i + 1];
    EXPECT_TRUE((seg.from == u && seg.to == v) ||
                (seg.from == v && seg.to == u));
  }
}

TEST(ShortestPath, GridManhattanHopCount) {
  const RoadGraph g = make_grid(4, 5);
  // Node ids are row-major; (0,0) -> (3,4) needs 3 + 4 hops.
  const auto route = shortest_path(g, 0, 19, PathMetric::kHops);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->cost, 7.0);
}

TEST(ShortestCosts, AllReachableOnConnectedGraph) {
  const RoadGraph g = make_grid(3, 3);
  const auto costs = shortest_costs(g, 4, PathMetric::kHops);  // center
  ASSERT_EQ(costs.size(), 9u);
  EXPECT_EQ(costs[4], 0.0);
  for (const double c : costs) {
    EXPECT_LT(c, std::numeric_limits<double>::infinity());
    EXPECT_LE(c, 2.0);  // center reaches every node within 2 hops
  }
}

TEST(ShortestCosts, InfinityForUnreachable) {
  RoadGraph g;
  g.add_intersection(PointM{0.0, 0.0});
  g.add_intersection(PointM{9.0, 0.0});
  g.finalize();
  const auto costs = shortest_costs(g, 0);
  EXPECT_EQ(costs[1], std::numeric_limits<double>::infinity());
}

TEST(ShortestPath, CostsAgreeWithRouteCost) {
  const RoadGraph g = make_grid(5, 5);
  const auto costs = shortest_costs(g, 0, PathMetric::kTravelTime);
  for (NodeId t = 1; t < g.num_intersections(); t += 7) {
    const auto route = shortest_path(g, 0, t, PathMetric::kTravelTime);
    ASSERT_TRUE(route.has_value());
    EXPECT_NEAR(route->cost, costs[t], 1e-9) << "target " << t;
  }
}

TEST(ShortestPathTree, WalksMatchFreshSearchesAndCostsBitForBit) {
  // One tree per origin serves every destination; walking it into a reused
  // Route must give the fresh single-pair route, with the cost the search
  // accumulated (summed outwards, so equal as bits, not just nearly).
  CityParams params;
  params.rows = 6;
  params.cols = 7;
  const RoadGraph g = build_city(params);
  for (const PathMetric metric :
       {PathMetric::kHops, PathMetric::kDistance, PathMetric::kTravelTime}) {
    const ShortestPathSearch search(g, metric);
    Route reused;
    for (NodeId from = 0; from < g.num_intersections(); ++from) {
      const std::vector<Hop> tree = shortest_path_tree(g, from, metric);
      const std::vector<double> costs = shortest_costs(g, from, metric);
      for (NodeId to = 0; to < g.num_intersections(); ++to) {
        ASSERT_TRUE(search.route(tree, from, to, reused));
        const auto fresh = shortest_path(g, from, to, metric);
        ASSERT_TRUE(fresh.has_value());
        EXPECT_EQ(reused.cost, costs[to]) << from << " -> " << to;
        EXPECT_EQ(reused.nodes, fresh->nodes) << from << " -> " << to;
        EXPECT_EQ(reused.segments, fresh->segments) << from << " -> " << to;
      }
    }
  }
}

TEST(ShortestPathTree, UnreachableAndForeignTreesAreRefused) {
  RoadGraph g;
  const NodeId a = g.add_intersection(PointM{0.0, 0.0});
  const NodeId b = g.add_intersection(PointM{1.0, 0.0});
  const NodeId c = g.add_intersection(PointM{2.0, 0.0});
  g.add_intersection(PointM{5.0, 0.0});  // disconnected node 3
  g.add_segment(a, b, RoadClass::kLocal);
  g.add_segment(b, c, RoadClass::kLocal);
  g.finalize();
  const std::vector<Hop> tree = shortest_path_tree(g, a);
  const ShortestPathSearch search(g, PathMetric::kTravelTime);
  Route route;
  EXPECT_FALSE(search.route(tree, a, 3, route));
  // A tree grown from `a` walked as if grown from `c` never reaches `c`.
  EXPECT_THROW(search.route(tree, c, b, route), ContractViolation);
}

/// The Dijkstra routing ran before it moved onto the Brandes pass's flat
/// adjacency and heap, kept as the oracle: a std::priority_queue over
/// (cost, node) pairs with a settled flag, relaxing on strict improvement
/// through the graph's own accessors.
struct ReferenceSearch {
  std::vector<double> dist;
  std::vector<Hop> parent;
};

ReferenceSearch reference_dijkstra(const RoadGraph& g, NodeId from,
                                   PathMetric metric) {
  const auto cost = [&](SegmentId s) {
    switch (metric) {
      case PathMetric::kHops:
        return 1.0;
      case PathMetric::kDistance:
        return g.segment(s).length_m;
      case PathMetric::kTravelTime:
        return g.segment(s).travel_time_s();
    }
    return 1.0;
  };
  const std::size_t n = g.num_intersections();
  ReferenceSearch res;
  res.dist.assign(n, std::numeric_limits<double>::infinity());
  res.parent.assign(n, Hop{});
  res.dist[from] = 0.0;
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, from);
  std::vector<bool> settled(n, false);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (settled[v]) continue;
    settled[v] = true;
    for (const Hop& hop : g.neighbors(v)) {
      const double nd = d + cost(hop.segment);
      if (nd < res.dist[hop.node]) {
        res.dist[hop.node] = nd;
        res.parent[hop.node] = Hop{hop.segment, v};
        heap.emplace(nd, hop.node);
      }
    }
  }
  return res;
}

// Oracle pair: every tree and cost the flat search produces, through the
// free functions and through one reused ShortestPathSearch, equals the
// reference's bit for bit, from every origin under every metric. Hop
// counts tie constantly, equal-length grid segments tie under all three
// metrics, and the cities' jittered lengths rarely tie, so the settle
// order's (cost, id) tie-break is exercised throughout.
TEST(ShortestPathTree, FlatSearchMatchesReferenceDijkstra) {
  CityParams paper;  // the paper-scale city every perfbench set-up builds
  paper.rows = 18;
  paper.cols = 24;
  paper.seed = 2022;
  CityParams mid;
  mid.rows = 12;
  mid.cols = 14;
  const std::pair<const char*, RoadGraph> graphs[] = {
      {"paper city", build_city(paper)},
      {"12x14 city", build_city(mid)},
      {"equal-length grid", make_grid(9, 11)},
  };
  for (const auto& [name, g] : graphs) {
    for (const PathMetric metric :
         {PathMetric::kHops, PathMetric::kDistance, PathMetric::kTravelTime}) {
      ShortestPathSearch search(g, metric);
      std::vector<Hop> tree;
      Route walked;
      for (NodeId from = 0; from < g.num_intersections(); ++from) {
        const ReferenceSearch ref = reference_dijkstra(g, from, metric);
        search.grow(from, tree);
        const std::span<const double> costs = search.costs();
        const std::vector<Hop> free_tree = shortest_path_tree(g, from, metric);
        const std::vector<double> free_costs = shortest_costs(g, from, metric);
        ASSERT_EQ(tree.size(), g.num_intersections());
        ASSERT_EQ(costs.size(), g.num_intersections());
        for (NodeId v = 0; v < g.num_intersections(); ++v) {
          const auto where = [&] {
            return std::string(name) + " metric " +
                   std::to_string(static_cast<int>(metric)) + " from " +
                   std::to_string(from) + " to " + std::to_string(v);
          };
          ASSERT_EQ(tree[v].segment, ref.parent[v].segment) << where();
          ASSERT_EQ(tree[v].node, ref.parent[v].node) << where();
          ASSERT_EQ(free_tree[v].segment, ref.parent[v].segment) << where();
          ASSERT_EQ(free_tree[v].node, ref.parent[v].node) << where();
          ASSERT_EQ(std::bit_cast<std::uint64_t>(costs[v]),
                    std::bit_cast<std::uint64_t>(ref.dist[v]))
              << where();
          ASSERT_EQ(std::bit_cast<std::uint64_t>(free_costs[v]),
                    std::bit_cast<std::uint64_t>(ref.dist[v]))
              << where();
        }
        // A walk repeats the search's additions.
        const NodeId to = (from * 7 + 3) % g.num_intersections();
        ASSERT_TRUE(search.route(tree, from, to, walked));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(walked.cost),
                  std::bit_cast<std::uint64_t>(ref.dist[to]));
      }
    }
  }
}

}  // namespace
}  // namespace avcp::roadnet
