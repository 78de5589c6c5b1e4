#include "sim/measured_exchange.h"

#include <algorithm>

#include "common/contracts.h"

namespace avcp::sim {

namespace {

// Sub-stream tags under the evaluator's base seed.
constexpr std::uint64_t kUniverseStream = 0xC1;
constexpr std::uint64_t kPlaneStream = 0xC2;

perception::DataUniverse make_exchange_universe(
    const core::MultiRegionGame& game, const MeasuredExchangeParams& params,
    std::uint64_t seed) {
  Rng rng(derive_seed(seed, {kUniverseStream}));
  return perception::DataUniverse::synthetic(game.lattice().num_sensors(),
                                             params.items_per_sensor,
                                             game.sensor_privacy(), rng);
}

}  // namespace

MeasuredExchange::MeasuredExchange(const core::MultiRegionGame& game,
                                   MeasuredExchangeParams params,
                                   std::uint64_t seed)
    : game_(game),
      params_(params),
      universe_(make_exchange_universe(game, params, seed)),
      plane_(game.lattice(), universe_, game.config().access,
             derive_seed(seed, {kPlaneStream})) {
  AVCP_EXPECT(params_.fleet_size >= game.num_decisions());
  AVCP_EXPECT(params_.items_per_sensor >= 1);
  AVCP_EXPECT(params_.collect_fraction > 0.0 && params_.collect_fraction <= 1.0);
  AVCP_EXPECT(params_.desire_fraction > 0.0 && params_.desire_fraction <= 1.0);
  fleet_.reserve(params_.fleet_size,
                 2 * params_.fleet_size * universe_.size());
  fitness_.resize(game.num_decisions());
  counts_.resize(game.num_decisions());
}

const std::vector<double>& MeasuredExchange::per_decision_fitness(
    std::span<const double> p, double beta, double x, std::uint64_t stream) {
  const std::size_t k = game_.num_decisions();
  AVCP_EXPECT(p.size() == k);
  Rng rng(stream);

  fleet_.clear();
  for (std::size_t v = 0; v < params_.fleet_size; ++v) {
    // Probes (one per class) guarantee every class is measured; the rest of
    // the fleet follows the region's empirical mix, shaping the pool.
    // Synthesis interleaves the collect/desire Bernoullis per item (the
    // seeded draw-order contract); collected streams straight into the
    // arena while desired buffers through the scratch.
    fleet_.add(v < k ? static_cast<core::DecisionId>(v)
                     : static_cast<core::DecisionId>(rng.weighted_index(p)));
    desired_scratch_.clear();
    fleet_.begin_collected(v);
    for (perception::ItemId id = 0; id < universe_.size(); ++id) {
      if (rng.bernoulli(params_.collect_fraction)) fleet_.push_item(id);
      if (rng.bernoulli(params_.desire_fraction)) desired_scratch_.push_back(id);
    }
    fleet_.end_set();
    if (desired_scratch_.empty()) desired_scratch_.push_back(0);
    std::span<perception::ItemId> d = fleet_.alloc_desired(
        v, static_cast<std::uint32_t>(desired_scratch_.size()));
    std::copy(desired_scratch_.begin(), desired_scratch_.end(), d.begin());
  }

  plane_.run_round_into(fleet_.view(), x, {}, {}, params_.mode, outcome_);

  std::fill(fitness_.begin(), fitness_.end(), 0.0);
  std::fill(counts_.begin(), counts_.end(), 0.0);
  for (std::size_t v = 0; v < params_.fleet_size; ++v) {
    fitness_[fleet_.decision(v)] += universe_.realized_fitness(
        beta, outcome_.utility[v], outcome_.privacy[v], fleet_.collected_of(v));
    counts_[fleet_.decision(v)] += 1.0;
  }
  for (std::size_t d = 0; d < k; ++d) {
    if (counts_[d] > 0.0) fitness_[d] /= counts_[d];
  }
  return fitness_;
}

}  // namespace avcp::sim
