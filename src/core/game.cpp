#include "core/game.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/serial.h"
#include "common/simd.h"

namespace avcp::core {

void GameState::save_state(Serializer& s) const {
  s.put_u64(p.size());
  for (const std::vector<double>& row : p) put_f64_vec(s, row);
}

void GameState::load_state(Deserializer& d) {
  const std::uint64_t rows = d.get_u64();
  Deserializer::check(rows <= d.remaining() / 8,
                      "GameState row count exceeds payload");
  p.assign(static_cast<std::size_t>(rows), {});
  for (std::vector<double>& row : p) row = get_f64_vec(d);
}

void check_distribution(std::span<const double> p, double tol) {
  double sum = 0.0;
  for (const double v : p) {
    AVCP_EXPECT(v >= -tol);
    sum += v;
  }
  AVCP_EXPECT(std::abs(sum - 1.0) <= tol * static_cast<double>(p.size() + 1));
}

MultiRegionGame::MultiRegionGame(GameConfig config,
                                 std::vector<RegionSpec> regions)
    : config_(std::move(config)), regions_(std::move(regions)) {
  AVCP_EXPECT(!regions_.empty());
  AVCP_EXPECT(config_.utility.size() == config_.lattice.num_decisions());
  AVCP_EXPECT(config_.privacy.size() == config_.lattice.num_decisions());
  AVCP_EXPECT(config_.step_size > 0.0);
  AVCP_EXPECT(config_.mutation >= 0.0 && config_.mutation < 1.0);
  AVCP_EXPECT(config_.min_growth_factor >= 0.0 &&
              config_.min_growth_factor < 1.0);
  for (const RegionSpec& spec : regions_) {
    AVCP_EXPECT(spec.beta >= 0.0);
    AVCP_EXPECT(spec.gamma_self >= 0.0);
    for (const auto& [j, gamma] : spec.neighbors) {
      AVCP_EXPECT(j < regions_.size());
      AVCP_EXPECT(gamma >= 0.0);
    }
  }
}

const RegionSpec& MultiRegionGame::region(RegionId i) const {
  AVCP_EXPECT(i < regions_.size());
  return regions_[i];
}

double MultiRegionGame::pooled_utility(std::span<const double> p,
                                       DecisionId k) const {
  double pooled = 0.0;
  for (const DecisionId l : config_.lattice.accessible(k, config_.access)) {
    pooled += p[l] * config_.utility[l];
  }
  return pooled;
}

template <typename Pooled>
double MultiRegionGame::fitness_from(std::span<const double> x, RegionId i,
                                     DecisionId k,
                                     const Pooled& pooled) const {
  const RegionSpec& spec = regions_[i];
  double gain = x[i] * spec.gamma_self * pooled(i);
  for (const auto& [j, gamma] : spec.neighbors) {
    gain += x[j] * gamma * pooled(j);
  }
  return spec.beta * gain - config_.privacy[k];
}

double MultiRegionGame::fitness(const GameState& state,
                                std::span<const double> x, RegionId i,
                                DecisionId k) const {
  AVCP_EXPECT(i < regions_.size());
  AVCP_EXPECT(x.size() == regions_.size());
  AVCP_EXPECT(state.p.size() == regions_.size());
  return fitness_from(x, i, k, [&](RegionId j) {
    return pooled_utility(state.p[j], k);
  });
}

std::vector<double> MultiRegionGame::region_fitness(const GameState& state,
                                                    std::span<const double> x,
                                                    RegionId i) const {
  std::vector<double> q;
  region_fitness_into(state, x, i, q);
  return q;
}

void MultiRegionGame::region_fitness_into(const GameState& state,
                                          std::span<const double> x,
                                          RegionId i,
                                          std::vector<double>& q) const {
  q.resize(num_decisions());
  for (DecisionId k = 0; k < q.size(); ++k) {
    q[k] = fitness(state, x, i, k);
  }
}

double MultiRegionGame::average_fitness(const GameState& state,
                                        std::span<const double> x,
                                        RegionId i) const {
  std::vector<double> q;
  return average_fitness(state, x, i, q);
}

double MultiRegionGame::average_fitness(const GameState& state,
                                        std::span<const double> x, RegionId i,
                                        std::vector<double>& q) const {
  region_fitness_into(state, x, i, q);
  double avg = 0.0;
  for (DecisionId k = 0; k < q.size(); ++k) {
    avg += state.p[i][k] * q[k];
  }
  return avg;
}

void MultiRegionGame::replicator_step(GameState& state,
                                      std::span<const double> x) const {
  AVCP_EXPECT(state.p.size() == regions_.size());
  AVCP_EXPECT(x.size() == regions_.size());
  const std::size_t m = regions_.size();
  const std::size_t k = num_decisions();
  const double eta = config_.step_size;
  const double mu = config_.mutation;

  // Synchronous update: every A_{j,d} is taken from the old state before
  // any row moves (A depends on region and decision only, so it is computed
  // once per step, not once per neighbour), which lets rows update in place.
  std::vector<double> scratch((m + 2) * k);
  double* pooled = scratch.data();  // pooled[j * k + d] = A_{j,d}
  double* q = pooled + m * k;
  double* row = q + k;
  for (RegionId j = 0; j < m; ++j) {
    AVCP_EXPECT(state.p[j].size() == k);
    for (DecisionId d = 0; d < k; ++d) {
      pooled[j * k + d] = pooled_utility(state.p[j], d);
    }
  }
  for (RegionId i = 0; i < m; ++i) {
    std::vector<double>& p = state.p[i];
    for (DecisionId d = 0; d < k; ++d) {
      q[d] = fitness_from(x, i, d,
                          [&](RegionId j) { return pooled[j * k + d]; });
    }
    double qbar = 0.0;
    for (DecisionId d = 0; d < k; ++d) qbar += p[d] * q[d];

    // Elementwise growth factors are SIMD (per-lane ops in the scalar
    // order, bit-identical); the row sum is an ordered reduction and
    // stays scalar.
    simd::growth_update(row, p.data(), q, qbar, eta, config_.min_growth_factor,
                        k);
    double sum = 0.0;
    for (DecisionId d = 0; d < k; ++d) sum += row[d];
    if (sum <= 0.0) {
      // Degenerate step (all factors clamped): keep the old distribution.
      std::copy(p.begin(), p.end(), row);
      sum = 1.0;
    }
    simd::normalize_mix(row, sum, mu, mu / static_cast<double>(k), k);
    std::copy(row, row + k, p.begin());
  }
}

GameState MultiRegionGame::uniform_state() const {
  GameState state;
  const double v = 1.0 / static_cast<double>(num_decisions());
  state.p.assign(num_regions(), std::vector<double>(num_decisions(), v));
  return state;
}

GameState MultiRegionGame::broadcast_state(std::span<const double> p) const {
  AVCP_EXPECT(p.size() == num_decisions());
  check_distribution(p);
  GameState state;
  state.p.assign(num_regions(), std::vector<double>(p.begin(), p.end()));
  return state;
}

}  // namespace avcp::core
