#include "trace/generator.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "roadnet/shortest_path.h"

namespace avcp::trace {

using roadnet::NodeId;
using roadnet::RoadClass;
using roadnet::RoadGraph;
using roadnet::SegmentId;

namespace {

double class_weight(RoadClass cls, const TraceParams& p) {
  switch (cls) {
    case RoadClass::kArterial:
      return p.arterial_weight;
    case RoadClass::kCollector:
      return p.collector_weight;
    case RoadClass::kLocal:
      return p.local_weight;
  }
  return p.local_weight;
}

PointM lerp(const PointM& a, const PointM& b, double t) {
  return PointM{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace

/// Trips leave from a few hundred distinct intersections, so each origin's
/// shortest-travel-time tree is grown on its first trip and walked for the
/// rest: the routes are exactly those of a fresh search per trip. One
/// search serves every origin, reusing its flat adjacency, travel times
/// and heap.
struct TraceGenerator::Router {
  explicit Router(const RoadGraph& g)
      : search(g, roadnet::PathMetric::kTravelTime),
        trees(g.num_intersections()) {}

  roadnet::ShortestPathSearch search;
  std::vector<std::vector<roadnet::Hop>> trees;  // by origin; empty = unbuilt
  roadnet::Route route;                          // reused for every trip

  /// The route from `from` to `to`, or nullptr when `to` is unreachable.
  const roadnet::Route* find(NodeId from, NodeId to) {
    std::vector<roadnet::Hop>& tree = trees[from];
    if (tree.empty()) search.grow(from, tree);
    return search.route(tree, from, to, route) ? &route : nullptr;
  }
};

TraceGenerator::TraceGenerator(const RoadGraph& graph, TraceParams params)
    : graph_(graph), params_(params) {
  AVCP_EXPECT(graph.finalized());
  AVCP_EXPECT(graph.num_intersections() >= 2);
  AVCP_EXPECT(params_.num_vehicles >= 1);
  AVCP_EXPECT(params_.duration_s > 0.0);
  AVCP_EXPECT(params_.fix_interval_s > 0.0);
  AVCP_EXPECT(params_.speed_factor_lo > 0.0);
  AVCP_EXPECT(params_.speed_factor_hi >= params_.speed_factor_lo);

  attraction_.resize(graph.num_intersections(), 0.0);
  for (std::size_t v = 0; v < attraction_.size(); ++v) {
    double w = 0.0;
    for (const roadnet::Hop& hop : graph.neighbors(static_cast<NodeId>(v))) {
      w += class_weight(graph.segment(hop.segment).cls, params_);
    }
    attraction_[v] = std::max(w, params_.local_weight);
  }
}

void TraceGenerator::generate(const FixSink& sink) const {
  Router router(graph_);
  // Built per call, not kept as a member: it views attraction_, and a
  // member would keep viewing the original's after a copy.
  const WeightedIndexSampler destination(attraction_);
  Rng root(params_.seed);
  for (VehicleId id = 0; id < params_.num_vehicles; ++id) {
    Rng vehicle_rng = root.split();
    generate_vehicle(id, vehicle_rng, destination, router, sink);
  }
}

std::vector<GpsFix> TraceGenerator::generate_all() const {
  std::vector<GpsFix> fixes;
  generate([&fixes](const GpsFix& fix) { fixes.push_back(fix); });
  return fixes;
}

void TraceGenerator::generate_vehicle(VehicleId id, Rng& rng,
                                      const WeightedIndexSampler& destination,
                                      Router& router,
                                      const FixSink& sink) const {
  const double speed_factor =
      rng.uniform(params_.speed_factor_lo, params_.speed_factor_hi);
  auto here = static_cast<NodeId>(destination(rng));

  double clock = rng.uniform(0.0, params_.fix_interval_s);  // desynchronise
  double next_fix = clock;

  while (clock < params_.duration_s) {
    // Dwell between trips: vehicle is parked, no fixes reported (the paper's
    // taxis report only while operating on the network).
    clock += rng.exponential(1.0 / params_.mean_dwell_s);
    if (clock >= params_.duration_s) break;
    // The GPS unit keeps sampling on its own cadence; skip the fixes that
    // fell inside the dwell without leaving the reporting grid.
    while (next_fix < clock) next_fix += params_.fix_interval_s;

    // Sample a destination distinct from the current node.
    NodeId dest = here;
    for (int attempt = 0; attempt < 16 && dest == here; ++attempt) {
      dest = static_cast<NodeId>(destination(rng));
    }
    if (dest == here) continue;

    const roadnet::Route* route = router.find(here, dest);
    if (route == nullptr || route->segments.empty()) continue;

    // Drive the route segment by segment, emitting fixes on the global
    // fix-interval grid.
    for (std::size_t i = 0; i < route->segments.size(); ++i) {
      const SegmentId sid = route->segments[i];
      const roadnet::RoadSegment& seg = graph_.segment(sid);
      const PointM& enter_pos = graph_.intersection(route->nodes[i]);
      const PointM& exit_pos = graph_.intersection(route->nodes[i + 1]);
      const double speed = seg.speed_mps * speed_factor;
      const double seg_time = seg.length_m / speed;
      const double enter_time = clock;
      const double exit_time = clock + seg_time;

      while (next_fix < exit_time) {
        if (next_fix >= enter_time) {
          if (next_fix >= params_.duration_s) return;
          const double frac = (next_fix - enter_time) / seg_time;
          sink(GpsFix{id, next_fix, lerp(enter_pos, exit_pos, frac), speed,
                      sid});
        }
        next_fix += params_.fix_interval_s;
      }
      clock = exit_time;
      if (clock >= params_.duration_s) return;
    }
    here = dest;
  }
}

}  // namespace avcp::trace
