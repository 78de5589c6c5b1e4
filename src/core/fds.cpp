#include "core/fds.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp::core {

DesiredFields::DesiredFields(std::size_t num_regions,
                             std::size_t num_decisions) {
  AVCP_EXPECT(num_regions >= 1 && num_decisions >= 1);
  targets_.assign(num_regions,
                  std::vector<Interval>(num_decisions, Interval{0.0, 1.0}));
}

const Interval& DesiredFields::target(RegionId i, DecisionId k) const {
  AVCP_EXPECT(i < targets_.size());
  AVCP_EXPECT(k < targets_[i].size());
  return targets_[i][k];
}

void DesiredFields::set_target(RegionId i, DecisionId k, Interval iv) {
  AVCP_EXPECT(i < targets_.size());
  AVCP_EXPECT(k < targets_[i].size());
  AVCP_EXPECT(!iv.empty());
  AVCP_EXPECT(iv.lo >= 0.0 && iv.hi <= 1.0);
  targets_[i][k] = iv;
}

DesiredFields DesiredFields::from_distribution(std::size_t num_regions,
                                               std::span<const double> p_star,
                                               double eps) {
  AVCP_EXPECT(eps >= 0.0);
  check_distribution(p_star);
  DesiredFields fields(num_regions, p_star.size());
  for (RegionId i = 0; i < num_regions; ++i) {
    for (DecisionId k = 0; k < p_star.size(); ++k) {
      fields.set_target(i, k,
                        Interval{std::max(0.0, p_star[k] - eps),
                                 std::min(1.0, p_star[k] + eps)});
    }
  }
  return fields;
}

bool DesiredFields::satisfied(const GameState& state, double tol) const {
  AVCP_EXPECT(state.p.size() == targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    AVCP_EXPECT(state.p[i].size() == targets_[i].size());
    for (std::size_t k = 0; k < targets_[i].size(); ++k) {
      const Interval& iv = targets_[i][k];
      const double p = state.p[i][k];
      if (p < iv.lo - tol || p > iv.hi + tol) return false;
    }
  }
  return true;
}

FixedRatioController::FixedRatioController(double value) : value_(value) {
  AVCP_EXPECT(value >= 0.0 && value <= 1.0);
}

std::vector<double> FixedRatioController::next_x(
    const GameState& state, const std::vector<double>& x_prev) {
  (void)x_prev;
  return std::vector<double>(state.num_regions(), value_);
}

void FixedRatioController::next_x_into(const GameState& state,
                                       const std::vector<double>& x_prev,
                                       std::vector<double>& out) {
  (void)x_prev;
  out.assign(state.num_regions(), value_);
}

FdsController::FdsController(const MultiRegionGame& game,
                             DesiredFields desired, FdsOptions options)
    : game_(game),
      desired_(std::move(desired)),
      options_(options),
      probe_(game) {
  AVCP_EXPECT(desired_.num_regions() == game.num_regions());
  AVCP_EXPECT(desired_.num_decisions() == game.num_decisions());
  AVCP_EXPECT(options_.max_step > 0.0);
}

void DesiredFields::save_state(Serializer& s) const {
  s.put_u64(num_regions());
  s.put_u64(num_decisions());
  for (const auto& row : targets_) {
    for (const Interval& iv : row) {
      s.put_f64(iv.lo);
      s.put_f64(iv.hi);
    }
  }
}

void DesiredFields::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == num_regions(),
                      "DesiredFields region count mismatch");
  Deserializer::check(d.get_u64() == num_decisions(),
                      "DesiredFields decision count mismatch");
  for (auto& row : targets_) {
    for (Interval& iv : row) {
      iv.lo = d.get_f64();
      iv.hi = d.get_f64();
    }
  }
}

void FdsController::set_desired(DesiredFields desired) {
  AVCP_EXPECT(desired.num_regions() == game_.num_regions());
  AVCP_EXPECT(desired.num_decisions() == game_.num_decisions());
  desired_ = std::move(desired);
}

IntervalSet FdsController::decision_feasible_set(RateProbe& probe, RegionId i,
                                                 DecisionId k) const {
  const Interval domain{0.0, 1.0};
  const Interval& target = desired_.target(i, k);
  const double tol = options_.tol;
  const double p_cur = probe.state().p[i][k];

  // Target already covers the whole simplex coordinate: any x works.
  if (target.lo <= tol && target.hi >= 1.0 - tol) {
    return IntervalSet(domain);
  }

  const RateFamily family = probe.rate_family(i, k);
  const auto [sum_a, sum_b] = family.sum_affine();        // alpha1 + alpha2
  const double a2_a = family.a2_slope;                    // alpha2 slope
  const double a2_b = family.a2_const;                    // alpha2 intercept

  if (target.hi >= 1.0 - tol) {
    // Desired field contains 1 (Algorithm 2 lines 5-6): Case 1 or the
    // unstable-interior flow toward 1 (p_cur on/above the rest point, i.e.
    // r(p_cur) >= 0 with increasing r).
    Interval case1 = solve_affine_ge(sum_a, sum_b, domain);
    case1 = Interval::intersect(case1, solve_affine_ge(a2_a, a2_b, domain));

    Interval case3up = solve_affine_ge(sum_a, sum_b, domain);
    case3up = Interval::intersect(case3up, solve_affine_le(a2_a, a2_b, domain));
    const auto [rp_a, rp_b] = family.rate_at_p_affine(p_cur);
    case3up = Interval::intersect(case3up, solve_affine_ge(rp_a, rp_b, domain));

    IntervalSet set(case1);
    set.add(case3up);
    return set;
  }

  if (target.lo <= tol) {
    // Desired field contains 0 (lines 7-8): Case 2 or the unstable-interior
    // flow toward 0.
    Interval case2 = solve_affine_le(sum_a, sum_b, domain);
    case2 = Interval::intersect(case2, solve_affine_le(a2_a, a2_b, domain));

    Interval case3down = solve_affine_ge(sum_a, sum_b, domain);
    case3down =
        Interval::intersect(case3down, solve_affine_le(a2_a, a2_b, domain));
    const auto [rp_a, rp_b] = family.rate_at_p_affine(p_cur);
    case3down =
        Interval::intersect(case3down, solve_affine_le(rp_a, rp_b, domain));

    IntervalSet set(case2);
    set.add(case3down);
    return set;
  }

  // Interior target (lines 9-10): Case 4 with the ESS inside [lo, hi].
  // With decreasing rate, the rest point lies in [lo, hi] iff r(lo) >= 0
  // and r(hi) <= 0.
  Interval case4 = solve_affine_le(sum_a, sum_b, domain);
  case4 = Interval::intersect(case4, solve_affine_ge(a2_a, a2_b, domain));
  const auto [lo_a, lo_b] = family.rate_at_p_affine(target.lo);
  case4 = Interval::intersect(case4, solve_affine_ge(lo_a, lo_b, domain));
  const auto [hi_a, hi_b] = family.rate_at_p_affine(target.hi);
  case4 = Interval::intersect(case4, solve_affine_le(hi_a, hi_b, domain));
  return IntervalSet(case4);
}

IntervalSet FdsController::feasible_set(const GameState& state,
                                        std::span<const double> x_prev,
                                        RegionId i) const {
  RateProbe probe(game_);
  probe.set(state, x_prev);
  return feasible_set(probe, i);
}

IntervalSet FdsController::prioritized_feasible_set(
    const GameState& state, std::span<const double> x_prev, RegionId i) const {
  RateProbe probe(game_);
  probe.set(state, x_prev);
  return prioritized_feasible_set(probe, i);
}

IntervalSet FdsController::feasible_set(RateProbe& probe, RegionId i) const {
  IntervalSet set = IntervalSet::whole(0.0, 1.0);
  for (DecisionId k = 0; k < game_.num_decisions(); ++k) {
    set = IntervalSet::intersect(set, decision_feasible_set(probe, i, k));
    if (set.empty()) break;
  }
  return set;
}

IntervalSet FdsController::prioritized_feasible_set(RateProbe& probe,
                                                    RegionId i) const {
  // Rank decisions by how far their proportion sits from the target.
  std::vector<std::pair<double, DecisionId>> ranked;
  ranked.reserve(game_.num_decisions());
  for (DecisionId k = 0; k < game_.num_decisions(); ++k) {
    const Interval& target = desired_.target(i, k);
    const double p = probe.state().p[i][k];
    const double violation = p < target.lo ? target.lo - p
                             : p > target.hi ? p - target.hi
                                             : 0.0;
    ranked.emplace_back(violation, k);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  IntervalSet set = IntervalSet::whole(0.0, 1.0);
  for (const auto& [violation, k] : ranked) {
    const IntervalSet candidate =
        IntervalSet::intersect(set, decision_feasible_set(probe, i, k));
    if (!candidate.empty()) set = candidate;
  }
  return set;
}

std::vector<double> FdsController::next_x(const GameState& state,
                                          const std::vector<double>& x_prev) {
  std::vector<double> x_next;
  next_x_into(state, x_prev, x_next);
  return x_next;
}

void FdsController::next_x_into(const GameState& state,
                                const std::vector<double>& x_prev,
                                std::vector<double>& out) {
  AVCP_EXPECT(x_prev.size() == game_.num_regions());
  std::vector<double>& x_next = out;
  x_next = x_prev;
  // Gauss-Seidel sweeps see the ratios already updated this round: each
  // update is written through to the probe's copy.
  const bool gauss_seidel = options_.sweep == FdsOptions::Sweep::kGaussSeidel;
  probe_.set(state, x_prev);
  for (RegionId i = 0; i < game_.num_regions(); ++i) {
    IntervalSet feasible = feasible_set(probe_, i);
    if (feasible.empty()) {
      // No single-round ratio satisfies every decision's flow condition at
      // once (the conditions can transiently conflict, e.g. suppressing P1
      // wants a low ratio while suppressing P8 wants a high one). Fall back
      // to serving the most-violated decisions first.
      feasible = prioritized_feasible_set(probe_, i);
    }
    AVCP_ENSURE(!feasible.empty());
    const double xi = x_prev[i];
    // Aim for the *interior* of the nearest admissible interval rather than
    // its boundary (Algorithm 2 moves toward min{X}): on the boundary the
    // shaped decision's flow is exactly zero, and competing decisions can
    // push the admissible set away faster than the population converges.
    const double nearest = *feasible.nearest(xi);
    const Interval* part = nullptr;
    for (const Interval& candidate : feasible.parts()) {
      if (candidate.contains(nearest)) {
        part = &candidate;
        break;
      }
    }
    AVCP_ENSURE(part != nullptr);
    const double m = std::min(options_.interior_margin, part->width() / 2.0);
    const Interval interior{part->lo + m, part->hi - m};
    if (interior.contains(xi)) continue;  // lines 12-13 (with margin)
    const double goal = interior.nearest(xi);
    const double delta = std::clamp(goal - xi, -options_.max_step,
                                    options_.max_step);
    x_next[i] = std::clamp(xi + delta, 0.0, 1.0);
    if (gauss_seidel) probe_.set_ratio(i, x_next[i]);
  }
}

}  // namespace avcp::core
