// Round-driven mean-field simulation loop (paper §II rounds t = 1..T).
//
// Each round the controller (cloud) publishes the sharing-ratio vector from
// the observed decision distribution (step S1), then the populations evolve
// one replicator step under those ratios (S2 + decision revision). The
// runner records the trajectory and stops when the desired decision fields
// are met (or on the round cap).
#pragma once

#include <vector>

#include "core/fds.h"
#include "core/game.h"

namespace avcp::sim {

struct RunOptions {
  std::size_t max_rounds = 5000;
  /// Record p and x per round (memory: rounds * M * K doubles).
  bool record_trajectory = true;
  /// Tolerance passed to DesiredFields::satisfied.
  double satisfy_tol = 1e-9;
};

struct RunResult {
  bool converged = false;
  /// Rounds executed until convergence (or max_rounds).
  std::size_t rounds = 0;
  core::GameState final_state;
  std::vector<double> final_x;
  /// trajectory[t] = state after round t (index 0 is the initial state).
  std::vector<core::GameState> trajectory;
  /// x_history[t] = ratios applied in round t+1.
  std::vector<std::vector<double>> x_history;

  /// Max absolute per-coordinate change between consecutive recorded
  /// states — the Fig. 10 bottom-panel series. Empty without a trajectory.
  std::vector<double> proportion_deltas() const;
};

/// Runs the loop. `stop_when` may be null (always runs max_rounds).
RunResult run_mean_field(const core::MultiRegionGame& game,
                         core::Controller& controller,
                         core::GameState initial, std::vector<double> x0,
                         const core::DesiredFields* stop_when,
                         const RunOptions& options = {});

}  // namespace avcp::sim
