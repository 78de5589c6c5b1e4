// Experiment-series export and robustness metrics.
//
// Bench binaries print human-readable tables; downstream analysis wants the
// raw series. These helpers dump simulation results as CSV so any plotting
// stack can regenerate the paper's figures from our runs. The robustness
// helpers quantify fault-injection runs: how fast FDS re-converges after an
// outage and how much realized utility/privacy a fault rate costs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

#include "core/fds.h"
#include "core/game.h"
#include "sim/runner.h"

namespace avcp::sim {

/// Writes a recorded trajectory as long-format CSV:
///   round,region,decision,proportion
/// Requires the run to have been recorded (RunOptions::record_trajectory).
void write_trajectory_csv(std::ostream& out, const RunResult& result);

/// Writes the applied sharing ratios:
///   round,region,x
void write_ratio_csv(std::ostream& out, const RunResult& result);

/// Writes one state snapshot:
///   region,decision,proportion
void write_state_csv(std::ostream& out, const core::GameState& state);

/// Sentinel for "never re-converged within the recorded trajectory".
inline constexpr std::size_t kNoReconvergence = ~std::size_t{0};

/// Rounds-to-reconverge after an outage: the number of rounds past
/// `resume_round` (the first round with reports/exchange restored) until
/// `trajectory` first satisfies `fields` again. trajectory[t] is the state
/// after round t; returns 0 if already satisfied at resume, or
/// kNoReconvergence if the recorded trajectory never recovers.
std::size_t rounds_to_reconverge(std::span<const core::GameState> trajectory,
                                 const core::DesiredFields& fields,
                                 std::size_t resume_round, double tol = 1e-9);

/// Utility/privacy degradation of a faulty run against its clean twin.
struct DegradationSummary {
  double mean_clean = 0.0;
  double mean_faulty = 0.0;
  double absolute_drop = 0.0;  // mean_clean - mean_faulty
  double relative_drop = 0.0;  // absolute_drop / |mean_clean| (0 if ~0)
};

/// Compares two per-round series of equal length (e.g. mean realized
/// utility with and without faults, same seed).
DegradationSummary degradation(std::span<const double> clean,
                               std::span<const double> faulty);

/// Precision / recall of a detector's flags against ground truth, over any
/// flattened (region-major) population. Conventions for the degenerate
/// cases: precision is 1 when nothing was flagged (no false alarms were
/// raised), recall is 1 when there was nothing to find.
struct DetectionStats {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  double precision = 1.0;
  double recall = 1.0;
};

DetectionStats detection_stats(std::span<const std::uint8_t> truth,
                               std::span<const std::uint8_t> flagged);

}  // namespace avcp::sim
