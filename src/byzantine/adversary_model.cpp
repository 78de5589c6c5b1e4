#include "byzantine/adversary_model.h"

#include "common/contracts.h"
#include "common/rng.h"
#include "common/serial.h"

namespace avcp::byzantine {

namespace {

/// Distinct hash stream for attacker designation, disjoint from the
/// faults::FaultModel streams so a run combining both layers draws
/// independent schedules from independent seeds.
constexpr std::uint64_t kAttackerStream = 0x627974726169746fULL;

/// Snapshot kind tag ("OPENLOOP"), distinct from AdaptiveAdversary's.
constexpr std::uint64_t kSnapshotKind = 0x504f4f4c4e45504fULL;

/// Absorbs one value into the running hash (splitmix64 finalizer over a
/// boost-style combine), matching the fault layer's scheme.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

inline double hash_uniform(std::uint64_t seed, std::uint64_t a,
                           std::uint64_t b) noexcept {
  std::uint64_t h = mix(seed, kAttackerStream);
  h = mix(h, a);
  h = mix(h, b);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool AdversaryParams::any() const noexcept { return attacker_fraction > 0.0; }

AdversaryModel::AdversaryModel(AdversaryParams params)
    : params_(params), active_(params_.any()) {
  AVCP_EXPECT(params_.attacker_fraction >= 0.0 &&
              params_.attacker_fraction <= 1.0);
  AVCP_EXPECT(params_.magnitude > 0.0);
  AVCP_EXPECT(params_.flip_period >= 1);
}

bool AdversaryModel::is_attacker(core::RegionId region,
                                 std::size_t vehicle) const noexcept {
  if (params_.attacker_fraction <= 0.0) return false;
  return hash_uniform(params_.seed, region, vehicle) <
         params_.attacker_fraction;
}

bool AdversaryModel::ever_attacks(core::RegionId region,
                                  std::size_t vehicle) const noexcept {
  if (!is_attacker(region, vehicle)) return false;
  if (params_.strategy == AttackStrategy::kColludingBias &&
      params_.target_region != AdversaryParams::kAllRegions &&
      params_.target_region != region) {
    return false;
  }
  return true;
}

bool AdversaryModel::attacking(std::size_t round, core::RegionId region,
                               std::size_t vehicle) const noexcept {
  if (!ever_attacks(region, vehicle)) return false;
  if (params_.strategy == AttackStrategy::kFlipFlop) {
    // Cycle starts honest: [0, T) clean, [T, 2T) attacking, ...
    return (round / params_.flip_period) % 2 == 1;
  }
  return true;
}

core::DecisionId AdversaryModel::behavior_decision(
    std::size_t round, core::RegionId region, std::size_t vehicle,
    core::DecisionId honest, const core::DecisionLattice& lattice)
    const noexcept {
  if (!attacking(round, region, vehicle)) return honest;
  switch (params_.strategy) {
    case AttackStrategy::kInflateSharing:
    case AttackStrategy::kColludingBias:
    case AttackStrategy::kFlipFlop:
      // Free-ride: upload under the share-nothing bottom of the lattice
      // (P^K shares no sensor) while the claim earns pool access.
      return static_cast<core::DecisionId>(lattice.num_decisions() - 1);
    case AttackStrategy::kDensityPoison:
    case AttackStrategy::kGammaExaggerate:
      return honest;  // telemetry-only lies; data-plane behaviour is honest
  }
  return honest;
}

VehicleReport AdversaryModel::falsify(std::size_t round, core::RegionId region,
                                      std::size_t vehicle,
                                      VehicleReport honest) const noexcept {
  if (!attacking(round, region, vehicle)) return honest;
  const auto share_all = static_cast<core::DecisionId>(0);
  VehicleReport r = honest;
  switch (params_.strategy) {
    case AttackStrategy::kInflateSharing:
      r.decision = share_all;
      break;
    case AttackStrategy::kDensityPoison:
      r.density *= params_.magnitude;
      break;
    case AttackStrategy::kGammaExaggerate:
      r.gamma *= params_.magnitude;
      break;
    case AttackStrategy::kColludingBias:
      // Coordinated identical lies: every colluder submits the same biased
      // row, so sample-variance checks see a consistent sub-population.
      r.decision = share_all;
      r.beta *= params_.magnitude;
      r.density *= params_.magnitude;
      break;
    case AttackStrategy::kFlipFlop:
      r.decision = share_all;
      r.density *= params_.magnitude;
      break;
  }
  return r;
}

void AdversaryModel::save_state(Serializer& s) const {
  s.put_u64(kSnapshotKind);
}

void AdversaryModel::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == kSnapshotKind,
                      "AdversaryModel snapshot: adversary kind mismatch");
}

}  // namespace avcp::byzantine
