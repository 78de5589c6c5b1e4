// Robust location estimators for folding per-vehicle reports into
// per-region observations.
//
// The cloud's controller acts on per-region aggregates of the vehicle
// reports. The sample mean — the implicit estimator of the paper's
// framework — has breakdown point 0: one falsified report moves it
// arbitrarily. RobustAggregator supplies the bounded-influence alternative
// for the scalar telemetry channels:
//
//   kMean    the exact current behaviour (kept bit-identical so the
//            robustness layer can be disabled without perturbing a seeded
//            run);
//   kMedian  breakdown point 1/2.
//
// Independent of the location mode, MAD-based outlier *rejection* scores
// every sample by |v - median| / max(MAD, floor) and flags scores above
// mad_threshold; the decision-histogram aggregation (report_pipeline.h)
// drops flagged reports before averaging. Honest telemetry is tightly
// concentrated, so the MAD collapses and any falsified channel stands out
// by orders of magnitude.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace avcp::byzantine {

enum class AggregationMode : std::uint8_t {
  kMean = 0,
  kMedian = 1,
};

struct RobustOptions {
  AggregationMode mode = AggregationMode::kMean;
  /// When true, samples whose MAD-normalised residual exceeds
  /// mad_threshold are excluded from the decision-histogram aggregation
  /// and scored into the reputation layer.
  bool reject_outliers = false;
  double mad_threshold = 8.0;
  /// Relative floor on the MAD scale: scale = max(MAD,
  /// mad_floor_rel * max(1, |median|)). Honest channels are exact in the
  /// synthetic plant, so the MAD is frequently zero; the floor keeps the
  /// residual finite while still flagging any real deviation.
  double mad_floor_rel = 1e-6;

  /// True when the aggregation path is the paper's trusting mean: location
  /// by kMean and no outlier rejection.
  bool passthrough() const noexcept {
    return mode == AggregationMode::kMean && !reject_outliers;
  }
};

class RobustAggregator {
 public:
  explicit RobustAggregator(RobustOptions options = {});

  const RobustOptions& options() const noexcept { return options_; }

  /// Location estimate of `values` under the configured mode; 0 for an
  /// empty sample. kMean sums in index order — bit-identical to the
  /// pre-existing mean path.
  double aggregate(std::span<const double> values) const;

  /// MAD-normalised residual of every sample: |v - median| /
  /// max(MAD, mad_floor_rel * max(1, |median|)).
  std::vector<double> outlier_scores(std::span<const double> values) const;

  /// Whether a score from outlier_scores crosses the rejection threshold
  /// (always false when rejection is disabled).
  bool is_outlier(double score) const noexcept {
    return options_.reject_outliers && score > options_.mad_threshold;
  }

  /// Median by value (sorts its copy); 0 for an empty sample.
  static double median(std::vector<double> values);

  /// Trust-weighted median: the smallest value whose cumulative weight
  /// reaches half the total (weights must be non-negative and pairwise
  /// aligned with values). Degenerates to the unweighted median when all
  /// weights are equal or the total weight is zero; 0 for an empty
  /// sample. This is how the Beta-prior trust posterior (trust.h) feeds
  /// the telemetry aggregation: partially-trusted vehicles lose influence
  /// continuously instead of only at the exclusion cliff.
  static double weighted_median(std::span<const double> values,
                                std::span<const double> weights);

  /// Median absolute deviation around `center`; 0 for an empty sample.
  static double mad(std::span<const double> values, double center);

 private:
  RobustOptions options_;
};

}  // namespace avcp::byzantine
