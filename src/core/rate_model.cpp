#include "core/rate_model.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace avcp::core {

double CaseInfo::limit(double p_current) const noexcept {
  switch (kind) {
    case CaseKind::kConvergeOne:
      return 1.0;
    case CaseKind::kConvergeZero:
      return 0.0;
    case CaseKind::kUnstableInterior:
      return p_current >= rest_point ? 1.0 : 0.0;
    case CaseKind::kStableInterior:
      return rest_point;
    case CaseKind::kNeutral:
      return p_current;
  }
  return p_current;
}

CaseInfo classify_case(const AffineRate& rate, double tol) noexcept {
  const double r0 = rate(0.0);  // alpha2
  const double r1 = rate(1.0);  // alpha1 + alpha2
  CaseInfo info;
  if (std::abs(r0) <= tol && std::abs(r1) <= tol) {
    info.kind = CaseKind::kNeutral;
    return info;
  }
  if (r0 >= -tol && r1 >= -tol) {
    info.kind = CaseKind::kConvergeOne;  // Case 1
    return info;
  }
  if (r0 <= tol && r1 <= tol) {
    info.kind = CaseKind::kConvergeZero;  // Case 2
    return info;
  }
  const double root = rate.rest_point();
  if (r0 <= tol && r1 >= -tol) {
    info.kind = CaseKind::kUnstableInterior;  // Case 3 (rate increasing)
    info.rest_point = root;
    return info;
  }
  info.kind = CaseKind::kStableInterior;  // Case 4 (rate decreasing, ESS)
  info.rest_point = root;
  return info;
}

double growth_rate_at(const MultiRegionGame& game, const GameState& state,
                      std::span<const double> x, RegionId i, DecisionId k,
                      double p_new) {
  RateProbe probe(game);
  probe.set(state, x);
  return probe.growth_rate_at(i, k, p_new);
}

AffineRate affine_rate(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k) {
  RateProbe probe(game);
  probe.set(state, x);
  return probe.affine_rate(i, k);
}

RateFamily rate_family(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k) {
  RateProbe probe(game);
  probe.set(state, x);
  return probe.rate_family(i, k);
}

void RateProbe::set(const GameState& state, std::span<const double> x) {
  state_.p.resize(state.p.size());
  for (std::size_t r = 0; r < state.p.size(); ++r) {
    state_.p[r].assign(state.p[r].begin(), state.p[r].end());
  }
  x_.assign(x.begin(), x.end());
}

void RateProbe::set_ratio(RegionId j, double xj) {
  AVCP_EXPECT(j < x_.size());
  x_[j] = xj;
}

double RateProbe::growth_rate_at(RegionId i, DecisionId k, double p_new) {
  AVCP_EXPECT(p_new >= 0.0 && p_new <= 1.0);
  AVCP_EXPECT(i < game_.num_regions());
  AVCP_EXPECT(k < game_.num_decisions());

  const std::size_t num_k = game_.num_decisions();
  auto& row = state_.p[i];
  const double p_cur = row[k];
  const double remainder_cur = 1.0 - p_cur;
  const double remainder_new = 1.0 - p_new;

  // Hypothetical region-i distribution with p_{i,k} = p_new and the other
  // groups rescaled proportionally (uniformly if currently extinct).
  saved_row_.assign(row.begin(), row.end());
  constexpr double kEps = 1e-12;
  if (remainder_cur > kEps) {
    const double scale = remainder_new / remainder_cur;
    for (DecisionId d = 0; d < num_k; ++d) {
      if (d != k) row[d] *= scale;
    }
  } else {
    const double share =
        num_k > 1 ? remainder_new / static_cast<double>(num_k - 1) : 0.0;
    for (DecisionId d = 0; d < num_k; ++d) {
      if (d != k) row[d] = share;
    }
  }
  row[k] = p_new;

  // q_[k] is fitness(probe, x, i, k): the same call the average makes.
  const double qbar = game_.average_fitness(state_, x_, i, q_);
  const double q_k = q_[k];
  std::copy(saved_row_.begin(), saved_row_.end(), row.begin());
  return q_k - qbar;
}

AffineRate RateProbe::affine_rate(RegionId i, DecisionId k) {
  // The true growth rate along the rescaling path is r(p) = (1-p) s(p) with
  // s affine, so two probes recover s exactly:
  //   s(0)   = r(0) / (1-0)   = r(0)
  //   s(1/2) = r(1/2) / (1/2) = 2 r(1/2)
  const double s0 = growth_rate_at(i, k, 0.0);
  const double s_half = 2.0 * growth_rate_at(i, k, 0.5);
  return AffineRate{2.0 * (s_half - s0), s0};
}

RateFamily RateProbe::rate_family(RegionId i, DecisionId k) {
  AVCP_EXPECT(x_.size() == game_.num_regions());
  AVCP_EXPECT(i < game_.num_regions());
  const double xi = x_[i];
  x_[i] = 0.0;
  const AffineRate at0 = affine_rate(i, k);
  x_[i] = 1.0;
  const AffineRate at1 = affine_rate(i, k);
  x_[i] = xi;

  RateFamily family;
  family.a1_const = at0.alpha1;
  family.a1_slope = at1.alpha1 - at0.alpha1;
  family.a2_const = at0.alpha2;
  family.a2_slope = at1.alpha2 - at0.alpha2;
  return family;
}

}  // namespace avcp::core
