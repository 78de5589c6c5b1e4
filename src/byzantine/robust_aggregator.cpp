#include "byzantine/robust_aggregator.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace avcp::byzantine {

RobustAggregator::RobustAggregator(RobustOptions options) : options_(options) {
  AVCP_EXPECT(options_.mad_threshold > 0.0);
  AVCP_EXPECT(options_.mad_floor_rel > 0.0);
}

double RobustAggregator::median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double RobustAggregator::weighted_median(std::span<const double> values,
                                         std::span<const double> weights) {
  AVCP_EXPECT(values.size() == weights.size());
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double w : weights) {
    AVCP_EXPECT(w >= 0.0);
    total += w;
  }
  if (total <= 0.0) {
    return median(std::vector<double>(values.begin(), values.end()));
  }
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;  // stable tie-break: index order, independent of layout
  });
  const double half = 0.5 * total;
  double cumulative = 0.0;
  for (const std::size_t i : order) {
    cumulative += weights[i];
    if (cumulative >= half) return values[i];
  }
  return values[order.back()];
}

double RobustAggregator::mad(std::span<const double> values, double center) {
  if (values.empty()) return 0.0;
  std::vector<double> deviations(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    deviations[i] = std::abs(values[i] - center);
  }
  return median(std::move(deviations));
}

double RobustAggregator::aggregate(std::span<const double> values) const {
  if (values.empty()) return 0.0;
  switch (options_.mode) {
    case AggregationMode::kMean: {
      double sum = 0.0;
      for (const double v : values) sum += v;
      return sum / static_cast<double>(values.size());
    }
    case AggregationMode::kMedian:
      return median(std::vector<double>(values.begin(), values.end()));
  }
  return 0.0;
}

std::vector<double> RobustAggregator::outlier_scores(
    std::span<const double> values) const {
  std::vector<double> scores(values.size(), 0.0);
  if (values.empty()) return scores;
  const double center =
      median(std::vector<double>(values.begin(), values.end()));
  const double scale =
      std::max(mad(values, center),
               options_.mad_floor_rel * std::max(1.0, std::abs(center)));
  for (std::size_t i = 0; i < values.size(); ++i) {
    scores[i] = std::abs(values[i] - center) / scale;
  }
  return scores;
}

}  // namespace avcp::byzantine
