// Growth-rate model and convergence-case taxonomy (paper §IV-A Step 4,
// Eqs. (5)-(10)).
//
// Fix a region i and decision k, and consider moving p = p_{i,k} along the
// simplex path that rescales the remaining decisions proportionally. The
// per-capita growth rate of Eq. (5) then factors exactly as
//
//   r(p) = q_{i,k}(p) - qbar_i(p) = (1 - p) * s(p),
//
// where the *advantage line* s(p) = alpha1 * p + alpha2 is affine in p: it
// is decision k's fitness edge over the (fixed-composition) mix of the
// other decisions. The replicator restricted to this path is the textbook
// two-strategy dynamic  dp = eta * p (1-p) s(p),  so the paper's four-case
// taxonomy (Fig. 6) is exactly the sign pattern of s at the endpoints:
//
//   Case 1  s >= 0 on [0,1]          -> p -> 1
//   Case 2  s <= 0 on [0,1]          -> p -> 0
//   Case 3  s(0) <= 0 <= s(1)        -> interior root repels (3a/3b)
//   Case 4  s(0) >= 0 >= s(1)        -> interior root is the stable ESS
//
// The paper's alpha1/alpha2 are an algebraic approximation of this line;
// we compute it exactly from two probes of the true dynamics (p = 0 and
// p = 1/2). Because Eq. (4)'s fitness is affine in the local sharing ratio
// x_i, both coefficients are affine in x_i as well (RateFamily), which lets
// FDS solve for admissible x_i in closed form via interval arithmetic.
#pragma once

#include <span>
#include <vector>

#include "common/interval.h"
#include "core/game.h"

namespace avcp::core {

/// The advantage line s(p) = alpha1 * p + alpha2 of one (region, decision).
/// The paper's growth-rate model: the replicator flow of p is
/// eta * p * (1-p) * s(p).
struct AffineRate {
  double alpha1 = 0.0;
  double alpha2 = 0.0;

  double operator()(double p) const noexcept { return alpha1 * p + alpha2; }
  /// Root of s (the interior rest point -alpha2/alpha1); only meaningful
  /// when alpha1 != 0.
  double rest_point() const noexcept { return -alpha2 / alpha1; }
};

/// The paper's four convergence cases (Fig. 6). kUnstableInterior covers
/// Cases 3a/3b (the limit depends on which side of the rest point p sits);
/// kStableInterior is Case 4 (ESS).
enum class CaseKind : std::uint8_t {
  kConvergeOne = 0,      // Case 1: s >= 0 on [0,1]
  kConvergeZero = 1,     // Case 2: s <= 0 on [0,1]
  kUnstableInterior = 2, // Case 3: s(0) <= 0 <= s(1), interior root repels
  kStableInterior = 3,   // Case 4: s(0) >= 0 >= s(1), interior root is ESS
  kNeutral = 4,          // s identically ~0: dynamics are frozen
};

struct CaseInfo {
  CaseKind kind = CaseKind::kNeutral;
  /// Interior rest point when kind is k{Unstable,Stable}Interior.
  double rest_point = 0.0;

  /// Predicted limit of p given its current value (flow of
  /// dp = p (1-p) s(p)). For the stable case this is the ESS itself.
  double limit(double p_current) const noexcept;
};

/// Classifies the advantage line per Eqs. (6)-(10). `tol` treats near-zero
/// endpoint values as zero.
CaseInfo classify_case(const AffineRate& rate, double tol = 1e-12) noexcept;

/// Exact per-capita growth rate of p_{i,k} evaluated at a hypothetical value
/// p_new, holding neighbours fixed and redistributing region i's remaining
/// mass proportionally (uniformly when the current remainder is zero).
/// At p_new = p_{i,k}^t this equals q_{i,k} - qbar_i exactly.
double growth_rate_at(const MultiRegionGame& game, const GameState& state,
                      std::span<const double> x, RegionId i, DecisionId k,
                      double p_new);

/// The advantage line of (i, k) at the given ratio vector, recovered
/// exactly from growth-rate probes at p = 0 and p = 1/2:
///   s(0) = r(0), s(1/2) = 2 r(1/2)
///   alpha2 = s(0), alpha1 = 2 * (s(1/2) - s(0)).
AffineRate affine_rate(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k);

/// alpha1 and alpha2 as affine functions of the *local* ratio x_i, with all
/// other ratios frozen at their current values (Algorithm 2's
/// "x_j^t = x_j^{t-1} for j != i" convention).
struct RateFamily {
  double a1_const = 0.0;
  double a1_slope = 0.0;
  double a2_const = 0.0;
  double a2_slope = 0.0;

  AffineRate at(double xi) const noexcept {
    return AffineRate{a1_const + a1_slope * xi, a2_const + a2_slope * xi};
  }
  /// Coefficients (slope, intercept) of alpha1(x)+alpha2(x) = s(1) in x.
  std::pair<double, double> sum_affine() const noexcept {
    return {a1_slope + a2_slope, a1_const + a2_const};
  }
  /// Coefficients of s(p_fixed) = p_fixed*alpha1(x) + alpha2(x) in x.
  std::pair<double, double> rate_at_p_affine(double p_fixed) const noexcept {
    return {p_fixed * a1_slope + a2_slope, p_fixed * a1_const + a2_const};
  }
};

RateFamily rate_family(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k);

/// The probe behind growth_rate_at, affine_rate and rate_family, reusable
/// across calls. It keeps a copy of one state and ratio vector; each probe
/// rewrites row i of the copy (or entry i of the ratios), evaluates, and
/// restores it, so the copy is taken once per set() rather than once per
/// probe. Results are bit-equal to the free functions on the same inputs,
/// and once warm at a given shape, probing allocates nothing. FdsController
/// keeps one for all the probes of a next_x_into round.
class RateProbe {
 public:
  /// `game` must outlive the probe.
  explicit RateProbe(const MultiRegionGame& game) : game_(game) {}

  /// Copies the state and ratios the probes start from (grow-only).
  void set(const GameState& state, std::span<const double> x);
  /// Updates ratio j of the copy (a Gauss-Seidel sweep's fresh ratio).
  void set_ratio(RegionId j, double xj);

  const GameState& state() const noexcept { return state_; }

  double growth_rate_at(RegionId i, DecisionId k, double p_new);
  AffineRate affine_rate(RegionId i, DecisionId k);
  RateFamily rate_family(RegionId i, DecisionId k);

 private:
  const MultiRegionGame& game_;
  GameState state_;
  std::vector<double> x_;
  std::vector<double> saved_row_;  // row i while a probe rewrites it
  std::vector<double> q_;          // fitness row
};

}  // namespace avcp::core
