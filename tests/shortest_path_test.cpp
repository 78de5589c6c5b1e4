#include "roadnet/shortest_path.h"

#include <gtest/gtest.h>

#include <limits>

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
    Route reused;
    for (NodeId from = 0; from < g.num_intersections(); ++from) {
      const std::vector<Hop> tree = shortest_path_tree(g, from, metric);
      const std::vector<double> costs = shortest_costs(g, from, metric);
      for (NodeId to = 0; to < g.num_intersections(); ++to) {
        ASSERT_TRUE(route_from_tree(g, tree, from, to, metric, reused));
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
  Route route;
  EXPECT_FALSE(route_from_tree(g, tree, a, 3, PathMetric::kTravelTime, route));
  // A tree grown from `a` walked as if grown from `c` never reaches `c`.
  EXPECT_THROW(route_from_tree(g, tree, c, b, PathMetric::kTravelTime, route),
               ContractViolation);
}

}  // namespace
}  // namespace avcp::roadnet
