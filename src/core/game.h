// Evolutionary game over data-sharing decisions (paper §III-IV-A).
//
// Vehicles in region r_i are grouped by decision; p_i = [p_{i,1}..p_{i,K}]
// is the proportion of each decision group. Each round:
//
//   fitness (Eq. 4):
//     q_{i,k} = beta_i * x_i * gamma_ii * A_{i,k}
//             + beta_i * sum_{j in N_i} x_j * gamma_ji * A_{j,k}
//             - g_k,
//     with pooled accessible utility A_{j,k} = sum_{l : P^l ⊆ P^k} p_{j,l} f_l
//
//   replicator dynamics (Eq. 5):
//     p_{i,k} <- p_{i,k} * (1 + eta * (q_{i,k} - qbar_i)),
//
// where eta is a step size (the paper's Eq. (5) is eta = 1) and qbar_i the
// region's average fitness. The update preserves the simplex: factors are
// clamped at zero and the distribution renormalised. An optional mutation
// floor mixes in the uniform distribution, modelling exploratory vehicles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/lattice.h"

namespace avcp {
class Serializer;
class Deserializer;
}  // namespace avcp

namespace avcp::core {

using RegionId = std::uint32_t;

/// Per-region game parameters derived from clustering (beta_i) and the
/// region graph (gamma weights).
struct RegionSpec {
  double beta = 1.0;        // utility coefficient beta_i of the region
  double gamma_self = 1.0;  // inner-region sharing frequency gamma_ii
  /// Neighbour regions with their inter-region frequency gamma_ji.
  std::vector<std::pair<RegionId, double>> neighbors;
};

/// Game-wide parameters.
struct GameConfig {
  DecisionLattice lattice{3};
  std::vector<double> utility;  // f_k, one per decision
  std::vector<double> privacy;  // g_k, one per decision
  AccessRule access = AccessRule::kSubsetOrEqual;
  double step_size = 1.0;  // eta
  double mutation = 0.0;   // uniform mutation floor in [0, 1)
  /// Floor on the per-round growth factor 1 + eta*(q - qbar). The pure
  /// discrete replicator (floor 0) extinguishes a decision outright when a
  /// single step overshoots, which no finite vehicle population does; the
  /// default bounds per-round attrition at 99%. Set 0 for Eq. (5) verbatim.
  double min_growth_factor = 0.01;
};

/// A point of the product simplex: p[i][k] = proportion of decision k in
/// region i. Every row sums to 1.
struct GameState {
  std::vector<std::vector<double>> p;

  std::size_t num_regions() const noexcept { return p.size(); }

  /// Checkpoint hooks: exact bit patterns of every proportion.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);
};

class MultiRegionGame {
 public:
  /// Neighbour indices in each spec must reference valid regions; utility /
  /// privacy vectors must match the lattice size.
  MultiRegionGame(GameConfig config, std::vector<RegionSpec> regions);

  const GameConfig& config() const noexcept { return config_; }
  const DecisionLattice& lattice() const noexcept { return config_.lattice; }
  std::size_t num_regions() const noexcept { return regions_.size(); }
  std::size_t num_decisions() const noexcept {
    return config_.lattice.num_decisions();
  }
  const RegionSpec& region(RegionId i) const;
  std::span<const RegionSpec> regions() const noexcept { return regions_; }

  /// Pooled accessible utility A(p, k) = sum over decisions l accessible
  /// from k of p_l * f_l.
  double pooled_utility(std::span<const double> p, DecisionId k) const;

  /// Eq. (4): fitness of decision k in region i at sharing ratios x.
  double fitness(const GameState& state, std::span<const double> x, RegionId i,
                 DecisionId k) const;

  /// All decisions' fitness in region i.
  std::vector<double> region_fitness(const GameState& state,
                                     std::span<const double> x,
                                     RegionId i) const;

  /// Allocation-free variant: resizes `q` to num_decisions() and fills it
  /// (no allocation once capacity is established — steady-state epoch
  /// loops reuse one scratch vector per region).
  void region_fitness_into(const GameState& state, std::span<const double> x,
                           RegionId i, std::vector<double>& q) const;

  /// Population-average fitness qbar_i.
  double average_fitness(const GameState& state, std::span<const double> x,
                         RegionId i) const;

  /// Allocation-free variant: `q` is the scratch fitness row, left holding
  /// region_fitness(state, x, i).
  double average_fitness(const GameState& state, std::span<const double> x,
                         RegionId i, std::vector<double>& q) const;

  /// Eq. (5): one synchronous replicator round over all regions.
  void replicator_step(GameState& state, std::span<const double> x) const;

  /// Uniform initial state (every decision at 1/K in every region).
  GameState uniform_state() const;

  /// State with the same distribution in every region. `p` must lie on the
  /// simplex (validated).
  GameState broadcast_state(std::span<const double> p) const;

  /// Per-sensor privacy weights for a measured data universe: each
  /// sensor's singleton-decision privacy g_k, floored at 1e-3. This
  /// recovers the paper's camera > lidar > radar sensitivity ordering from
  /// whatever tables the game carries.
  std::vector<double> sensor_privacy() const;

 private:
  GameConfig config_;
  std::vector<RegionSpec> regions_;

  /// Eq. (4) for decision k of region i, with A_{j,k} read from
  /// `pooled(j)`: the one place its operands and their order live (own
  /// region first, then neighbours in spec order), shared by fitness() and
  /// replicator_step() so the two cannot drift apart.
  template <typename Pooled>
  double fitness_from(std::span<const double> x, RegionId i, DecisionId k,
                      const Pooled& pooled) const;
};

/// Validates that `p` is a distribution (non-negative, sums to 1 within
/// tolerance); throws ContractViolation otherwise.
void check_distribution(std::span<const double> p, double tol = 1e-6);

}  // namespace avcp::core
