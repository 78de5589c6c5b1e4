#include "sim/metrics.h"

#include <cmath>
#include <ostream>
#include <string>

#include "common/contracts.h"
#include "common/csv.h"

namespace avcp::sim {

void write_trajectory_csv(std::ostream& out, const RunResult& result) {
  AVCP_EXPECT(!result.trajectory.empty());
  CsvWriter writer(out);
  writer.write_row({"round", "region", "decision", "proportion"});
  for (std::size_t t = 0; t < result.trajectory.size(); ++t) {
    const core::GameState& state = result.trajectory[t];
    for (std::size_t i = 0; i < state.p.size(); ++i) {
      for (std::size_t k = 0; k < state.p[i].size(); ++k) {
        writer.write_row({std::to_string(t), std::to_string(i),
                          std::to_string(k), std::to_string(state.p[i][k])});
      }
    }
  }
}

void write_ratio_csv(std::ostream& out, const RunResult& result) {
  AVCP_EXPECT(!result.x_history.empty());
  CsvWriter writer(out);
  writer.write_row({"round", "region", "x"});
  for (std::size_t t = 0; t < result.x_history.size(); ++t) {
    for (std::size_t i = 0; i < result.x_history[t].size(); ++i) {
      writer.write_row({std::to_string(t + 1), std::to_string(i),
                        std::to_string(result.x_history[t][i])});
    }
  }
}

std::size_t rounds_to_reconverge(std::span<const core::GameState> trajectory,
                                 const core::DesiredFields& fields,
                                 std::size_t resume_round, double tol) {
  for (std::size_t t = resume_round; t < trajectory.size(); ++t) {
    if (fields.satisfied(trajectory[t], tol)) return t - resume_round;
  }
  return kNoReconvergence;
}

DegradationSummary degradation(std::span<const double> clean,
                               std::span<const double> faulty) {
  AVCP_EXPECT(clean.size() == faulty.size());
  AVCP_EXPECT(!clean.empty());
  DegradationSummary summary;
  for (const double v : clean) summary.mean_clean += v;
  for (const double v : faulty) summary.mean_faulty += v;
  summary.mean_clean /= static_cast<double>(clean.size());
  summary.mean_faulty /= static_cast<double>(faulty.size());
  summary.absolute_drop = summary.mean_clean - summary.mean_faulty;
  const double scale = std::abs(summary.mean_clean);
  summary.relative_drop = scale > 1e-12 ? summary.absolute_drop / scale : 0.0;
  return summary;
}

DetectionStats detection_stats(std::span<const std::uint8_t> truth,
                               std::span<const std::uint8_t> flagged) {
  AVCP_EXPECT(truth.size() == flagged.size());
  DetectionStats stats;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const bool is_attacker = truth[i] != 0;
    const bool is_flagged = flagged[i] != 0;
    if (is_attacker && is_flagged) ++stats.true_positives;
    if (!is_attacker && is_flagged) ++stats.false_positives;
    if (is_attacker && !is_flagged) ++stats.false_negatives;
  }
  const std::size_t flagged_total = stats.true_positives + stats.false_positives;
  const std::size_t attackers = stats.true_positives + stats.false_negatives;
  if (flagged_total > 0) {
    stats.precision = static_cast<double>(stats.true_positives) /
                      static_cast<double>(flagged_total);
  }
  if (attackers > 0) {
    stats.recall = static_cast<double>(stats.true_positives) /
                   static_cast<double>(attackers);
  }
  return stats;
}

void write_state_csv(std::ostream& out, const core::GameState& state) {
  CsvWriter writer(out);
  writer.write_row({"region", "decision", "proportion"});
  for (std::size_t i = 0; i < state.p.size(); ++i) {
    for (std::size_t k = 0; k < state.p[i].size(); ++k) {
      writer.write_row({std::to_string(i), std::to_string(k),
                        std::to_string(state.p[i][k])});
    }
  }
}

}  // namespace avcp::sim
