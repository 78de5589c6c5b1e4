#include "sim/runner.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace avcp::sim {

std::vector<double> RunResult::proportion_deltas() const {
  std::vector<double> deltas;
  if (trajectory.size() < 2) return deltas;
  deltas.reserve(trajectory.size() - 1);
  for (std::size_t t = 1; t < trajectory.size(); ++t) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < trajectory[t].p.size(); ++i) {
      for (std::size_t k = 0; k < trajectory[t].p[i].size(); ++k) {
        max_delta = std::max(
            max_delta,
            std::abs(trajectory[t].p[i][k] - trajectory[t - 1].p[i][k]));
      }
    }
    deltas.push_back(max_delta);
  }
  return deltas;
}

RunResult run_mean_field(const core::MultiRegionGame& game,
                         core::Controller& controller,
                         core::GameState initial, std::vector<double> x0,
                         const core::DesiredFields* stop_when,
                         const RunOptions& options) {
  AVCP_EXPECT(initial.p.size() == game.num_regions());
  AVCP_EXPECT(x0.size() == game.num_regions());
  // Option validation, FaultParams-style: reject misconfiguration at the
  // entry point instead of looping forever or never converging silently.
  AVCP_EXPECT(options.max_rounds > 0);
  AVCP_EXPECT(options.satisfy_tol >= 0.0);

  RunResult result;
  core::GameState state = std::move(initial);
  std::vector<double> x = std::move(x0);

  if (options.record_trajectory) {
    result.trajectory.push_back(state);
  }
  if (stop_when != nullptr && stop_when->satisfied(state, options.satisfy_tol)) {
    result.converged = true;
    result.final_state = std::move(state);
    result.final_x = std::move(x);
    return result;
  }

  while (result.rounds < options.max_rounds) {
    x = controller.next_x(state, x);
    game.replicator_step(state, x);
    ++result.rounds;
    if (options.record_trajectory) {
      result.trajectory.push_back(state);
      result.x_history.push_back(x);
    }
    if (stop_when != nullptr &&
        stop_when->satisfied(state, options.satisfy_tol)) {
      result.converged = true;
      break;
    }
  }

  result.final_state = std::move(state);
  result.final_x = std::move(x);
  return result;
}

}  // namespace avcp::sim
