// The repo's finite-population engine as tests drive it: a ServiceEngine
// with churn off and congestion_alpha 0, so every region keeps its N
// vehicles and one epoch is one paper round of pairwise proportional
// imitation, here at a fixed sharing ratio.
#pragma once

#include <cstddef>
#include <vector>

#include "core/fds.h"
#include "core/game.h"
#include "faults/fault_model.h"
#include "roadnet/builders.h"
#include "roadnet/road_graph.h"
#include "service/service_engine.h"

namespace avcp::service::testing {

/// Empirical per-region decision distribution straight off the fleet
/// records (regions the fleet vacated keep an all-zero row here).
inline std::vector<std::vector<double>> empirical_from_fleet(
    const core::MultiRegionGame& game, const ServiceEngine& svc) {
  std::vector<std::vector<double>> p(
      game.num_regions(), std::vector<double>(game.num_decisions(), 0.0));
  std::vector<std::size_t> count(game.num_regions(), 0);
  for (const VehicleRecord& rec : svc.fleet()) {
    p[rec.region][rec.decision] += 1.0;
    ++count[rec.region];
  }
  for (std::size_t r = 0; r < p.size(); ++r) {
    if (count[r] == 0) continue;
    for (double& v : p[r]) v /= static_cast<double>(count[r]);
  }
  return p;
}

/// A zero-churn service that owns the road graph and controller it
/// borrows. A one-region game runs on a 2x2 grid, anything larger on a 6x6
/// grid. The ratio starts at the controller's value, so x stays `x` every
/// epoch.
struct ZeroChurnFleet {
  ZeroChurnFleet(const core::MultiRegionGame& game, const ServiceParams& params,
                 double x, const core::GameState& initial,
                 const faults::FaultModel* faults = nullptr)
      : graph(game.num_regions() == 1 ? roadnet::make_grid(2, 2)
                                      : roadnet::make_grid(6, 6)),
        ratio(x),
        svc(game, ratio, &graph, params, faults) {
    svc.init(initial, std::vector<double>(game.num_regions(), x));
  }

  roadnet::RoadGraph graph;
  core::FixedRatioController ratio;
  ServiceEngine svc;
};

}  // namespace avcp::service::testing
