#include "core/lattice.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"

namespace avcp::core {

DecisionLattice::DecisionLattice(std::size_t num_sensors)
    : num_sensors_(num_sensors) {
  AVCP_EXPECT(num_sensors >= 1 && num_sensors <= 16);
  const std::size_t k = std::size_t{1} << num_sensors;

  masks_.resize(k);
  for (std::size_t m = 0; m < k; ++m) {
    masks_[m] = static_cast<SensorMask>(m);
  }
  // Paper numbering: larger subsets first; ties broken by descending mask
  // value, which (with sensor 0 in the most significant bit) reproduces the
  // P1..P8 order of §III.
  std::sort(masks_.begin(), masks_.end(),
            [](SensorMask a, SensorMask b) {
              const auto ca = std::popcount(a);
              const auto cb = std::popcount(b);
              if (ca != cb) return ca > cb;
              return a > b;
            });

  of_mask_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    of_mask_[masks_[i]] = static_cast<DecisionId>(i);
  }

  accessible_eq_.resize(k);
  accessible_strict_.resize(k);
  for (DecisionId a = 0; a < k; ++a) {
    for (DecisionId b = 0; b < k; ++b) {
      const SensorMask ma = masks_[a];
      const SensorMask mb = masks_[b];
      if ((mb & ma) == mb) {  // P^b subset-or-equal P^a
        accessible_eq_[a].push_back(b);
        if (mb != ma) accessible_strict_[a].push_back(b);
      }
    }
    std::sort(accessible_eq_[a].begin(), accessible_eq_[a].end());
    std::sort(accessible_strict_[a].begin(), accessible_strict_[a].end());
  }
}

SensorMask DecisionLattice::mask(DecisionId k) const {
  AVCP_EXPECT(k < masks_.size());
  return masks_[k];
}

DecisionId DecisionLattice::decision_of(SensorMask mask) const {
  AVCP_EXPECT(mask < of_mask_.size());
  return of_mask_[mask];
}

SensorMask DecisionLattice::sensor_bit(std::size_t s) const {
  AVCP_EXPECT(s < num_sensors_);
  return SensorMask{1} << (num_sensors_ - 1 - s);
}

bool DecisionLattice::shares(DecisionId k, std::size_t s) const {
  return (mask(k) & sensor_bit(s)) != 0;
}

std::size_t DecisionLattice::cardinality(DecisionId k) const {
  return static_cast<std::size_t>(std::popcount(mask(k)));
}

bool DecisionLattice::preceq(DecisionId k, DecisionId l) const {
  const SensorMask mk = mask(k);
  const SensorMask ml = mask(l);
  return (ml & mk) == ml;
}

bool DecisionLattice::precedes(DecisionId k, DecisionId l) const {
  return preceq(k, l) && mask(k) != mask(l);
}

std::span<const DecisionId> DecisionLattice::accessible(
    DecisionId k, AccessRule rule) const {
  AVCP_EXPECT(k < masks_.size());
  return rule == AccessRule::kSubsetOrEqual ? accessible_eq_[k]
                                            : accessible_strict_[k];
}

std::vector<std::pair<DecisionId, DecisionId>> DecisionLattice::hasse_edges()
    const {
  std::vector<std::pair<DecisionId, DecisionId>> edges;
  for (DecisionId k = 0; k < masks_.size(); ++k) {
    const SensorMask mk = masks_[k];
    for (std::size_t s = 0; s < num_sensors_; ++s) {
      const SensorMask bit = sensor_bit(s);
      if (mk & bit) {
        edges.emplace_back(k, decision_of(mk & ~bit));
      }
    }
  }
  return edges;
}

std::string DecisionLattice::label(
    DecisionId k, std::span<const std::string> sensor_names) const {
  static const std::string kDefaults[] = {"cam", "lid", "rad"};
  // append rather than operator+: GCC 12 at -O3 misreads the inlined
  // operator+ as an overlapping copy (a false -Wrestrict).
  std::string out = "P";
  out.append(std::to_string(k + 1)).append("{");
  bool first = true;
  for (std::size_t s = 0; s < num_sensors_; ++s) {
    if (!shares(k, s)) continue;
    if (!first) out += ",";
    first = false;
    if (s < sensor_names.size()) {
      out += sensor_names[s];
    } else if (s < 3 && num_sensors_ == 3) {
      out += kDefaults[s];
    } else {
      out.append("s").append(std::to_string(s));
    }
  }
  out += "}";
  return out;
}

}  // namespace avcp::core
