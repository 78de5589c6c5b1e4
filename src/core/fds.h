// Fast Decision Shaping (paper §IV-B, Algorithm 2) and controllers.
//
// The cloud's policy-optimisation problem (Eq. (14)) — pick per-region
// sharing ratios x^t so every decision proportion p_{i,k} reaches its
// desired field P*_{i,k} as fast as possible under the smoothness bound
// |x_i^{t+1} - x_i^t| <= Lambda — is NP-hard. FDS instead relocates each
// (i, k)'s rest point: for every region it computes the set X_i of local
// ratios x_i under which the affine-rate case analysis (rate_model.h)
// drives all p_{i,k} toward their targets, then keeps x_i if admissible or
// moves it toward the nearest admissible point by at most Lambda.
//
// All case conditions are affine in x_i (RateFamily), so each per-decision
// admissible set is a union of at most two intervals and X_i is an exact
// interval-set intersection — no numeric search.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/interval.h"
#include "core/game.h"
#include "core/rate_model.h"

namespace avcp::core {

/// Desired decision fields P*_{i,k}: one closed interval per region and
/// decision. Intervals containing 1 (resp. 0) are driven via Cases 1/3
/// (resp. 2/3); interior intervals via the ESS relocation of Case 4.
class DesiredFields {
 public:
  DesiredFields(std::size_t num_regions, std::size_t num_decisions);

  /// Target for (region, decision); defaults to the whole [0, 1] (always
  /// satisfied) until set.
  const Interval& target(RegionId i, DecisionId k) const;
  void set_target(RegionId i, DecisionId k, Interval iv);

  /// Sets the same per-decision targets in every region, built from a
  /// desired distribution p* and tolerance eps: target_k = [p*_k - eps,
  /// p*_k + eps] clipped to [0, 1] (paper §V-C's acceptable error).
  static DesiredFields from_distribution(std::size_t num_regions,
                                         std::span<const double> p_star,
                                         double eps);

  std::size_t num_regions() const noexcept { return targets_.size(); }
  std::size_t num_decisions() const noexcept {
    return targets_.empty() ? 0 : targets_.front().size();
  }

  /// True if every p[i][k] lies in its target (within tol).
  bool satisfied(const GameState& state, double tol = 1e-9) const;

  /// Checkpoint hooks: the cloud retargets fields from telemetry mid-run
  /// (set_target / density_weighted_fields), so the intervals are run
  /// state. load_state rejects dimension mismatches with SerialError.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  std::vector<std::vector<Interval>> targets_;
};

/// A policy controller: maps the observed state and previous ratios to the
/// next round's sharing-ratio vector (Step S1 of the framework).
class Controller {
 public:
  virtual ~Controller() = default;
  virtual std::vector<double> next_x(const GameState& state,
                                     const std::vector<double>& x_prev) = 0;

  /// Grow-only variant for steady-state loops: writes the next ratios into
  /// `out`, reusing its capacity. `out` must not alias `x_prev`. The base
  /// falls back to next_x; the in-tree controllers override it so a warmed
  /// caller-owned `out` makes the call allocation-free.
  virtual void next_x_into(const GameState& state,
                           const std::vector<double>& x_prev,
                           std::vector<double>& out) {
    out = next_x(state, x_prev);
  }
};

/// Baseline: a constant sharing ratio in every region (the x = 0.2 / 1.0
/// comparisons of Fig. 10).
class FixedRatioController final : public Controller {
 public:
  explicit FixedRatioController(double value);
  std::vector<double> next_x(const GameState& state,
                             const std::vector<double>& x_prev) override;
  void next_x_into(const GameState& state, const std::vector<double>& x_prev,
                   std::vector<double>& out) override;

 private:
  double value_;
};

struct FdsOptions {
  /// Lambda of Eq. (13): per-round cap on |x_i^{t+1} - x_i^t|.
  double max_step = 0.05;
  /// How far inside the admissible interval the controller aims. On the
  /// boundary the shaped decision's flow is exactly zero, so a ratio there
  /// stalls; the margin buys strictly positive convergence speed.
  double interior_margin = 0.1;
  /// Numeric tolerance for boundary membership tests.
  double tol = 1e-9;
  /// Update order across regions within one round. Jacobi (paper Algorithm
  /// 2): every region sees the previous round's ratios of its neighbours.
  /// Gauss-Seidel: regions update in index order and later regions see the
  /// fresh ratios — typically converges in fewer rounds on coupled graphs.
  enum class Sweep : std::uint8_t { kJacobi = 0, kGaussSeidel = 1 };
  Sweep sweep = Sweep::kJacobi;
};

class FdsController final : public Controller {
 public:
  /// `game` must outlive the controller.
  FdsController(const MultiRegionGame& game, DesiredFields desired,
                FdsOptions options = {});

  /// Admissible local-ratio set X_i^t = intersection over k of X_{i,k}^t
  /// (Algorithm 2 lines 5-11), holding other regions' ratios at x_prev.
  IntervalSet feasible_set(const GameState& state,
                           std::span<const double> x_prev, RegionId i) const;

  /// Algorithm 2 lines 12-18 for every region (Jacobi update: each region
  /// sees the previous round's ratios of its neighbours).
  std::vector<double> next_x(const GameState& state,
                             const std::vector<double>& x_prev) override;
  void next_x_into(const GameState& state, const std::vector<double>& x_prev,
                   std::vector<double>& out) override;

  const DesiredFields& desired() const noexcept { return desired_; }

  /// Replaces the desired fields mid-run (same region/decision dimensions).
  /// The cloud recomputes targets from telemetry — e.g. density-weighted
  /// floors (byzantine::density_weighted_fields) — between rounds; the
  /// controller itself is stateless across next_x calls, so swapping the
  /// fields is the whole update.
  void set_desired(DesiredFields desired);

  /// Checkpoint hooks. next_x is a pure function of (state, x_prev) given
  /// the fields, so the fields are the controller's entire mutable state.
  void save_state(Serializer& s) const { desired_.save_state(s); }
  void load_state(Deserializer& d) { desired_.load_state(d); }

 private:
  const MultiRegionGame& game_;
  DesiredFields desired_;
  FdsOptions options_;
  /// Growth-rate probe scratch of one next_x_into round (grow-only). Each
  /// round starts it from that round's inputs, so nothing in it is state.
  RateProbe probe_;

  // feasible_set above, over the state and ratios held by `probe`.
  IntervalSet feasible_set(RateProbe& probe, RegionId i) const;
  /// Best-effort set when the full intersection is empty: per-decision sets
  /// are intersected greedily in decreasing order of target violation, and
  /// any constraint that would empty the set is skipped. The result always
  /// contains at least the constraints of the most-violated decision, so
  /// the controller keeps making progress where Algorithm 2 would stall.
  IntervalSet prioritized_feasible_set(RateProbe& probe, RegionId i) const;
  IntervalSet decision_feasible_set(RateProbe& probe, RegionId i,
                                    DecisionId k) const;
};

}  // namespace avcp::core
