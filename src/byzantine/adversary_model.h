// Adversarial vehicle models for the Byzantine-robust telemetry path.
//
// faults::FaultModel covers *crash* faults: links drop, servers go down,
// reports vanish. AdversaryModel covers *strategic* misbehaviour — vehicles
// that stay perfectly reachable but lie. From the same seeded pure-hash
// scheme as the fault layer it designates a fraction of every region's
// fleet as attackers and synthesizes their falsified S1 reports under
// pluggable strategies:
//
//   kInflateSharing   free-rider: claims the share-everything decision
//                     toward the server (earning lattice access to the
//                     whole pool) while actually uploading nothing.
//   kDensityPoison    inflates the claimed traffic density, steering the
//                     cloud's density-derived desired fields.
//   kGammaExaggerate  exaggerates the claimed sharing frequency gamma.
//   kColludingBias    colluders inside one target region submit identical
//                     biased reports (beta and density scaled, decision
//                     claimed share-all) — coordinated lies defeat
//                     variance checks but not the median.
//   kFlipFlop         on/off: behaves honestly for flip_period rounds,
//                     then attacks (inflate + density poison) for the
//                     next flip_period rounds, evading naive detectors.
//
// Every predicate is a pure hash of (seed, stream, indices) — no mutable
// RNG state — so schedules are reproducible regardless of query order and
// the plant, the simulators, and the benches can consult one model
// independently without perturbing each other.
#pragma once

#include <cstdint>

#include "byzantine/report.h"
#include "core/game.h"
#include "core/lattice.h"

namespace avcp::byzantine {

enum class AttackStrategy : std::uint8_t {
  kInflateSharing = 0,
  kDensityPoison = 1,
  kGammaExaggerate = 2,
  kColludingBias = 3,
  kFlipFlop = 4,
};

struct AdversaryParams {
  /// Sentinel: the attack targets every region (kColludingBias).
  static constexpr core::RegionId kAllRegions = ~core::RegionId{0};

  /// Fraction of each region's fleet designated as attackers.
  double attacker_fraction = 0.0;
  AttackStrategy strategy = AttackStrategy::kInflateSharing;
  /// Multiplier applied to the falsified telemetry channels (density for
  /// kDensityPoison/kFlipFlop, gamma for kGammaExaggerate, beta and
  /// density for kColludingBias).
  double magnitude = 4.0;
  /// kColludingBias: region whose desired field the colluders steer;
  /// attackers in other regions stay honest.
  core::RegionId target_region = kAllRegions;
  /// kFlipFlop: half-period of the on/off cycle in rounds. The cycle
  /// starts honest: rounds [0, flip_period) are clean.
  std::size_t flip_period = 5;
  std::uint64_t seed = 0;

  /// True if any vehicle can ever attack. A model with any() == false is
  /// inert: the plant's report path is bit-identical to running with no
  /// model at all.
  bool any() const noexcept;
};

class AdversaryModel final : public Adversary {
 public:
  explicit AdversaryModel(AdversaryParams params);

  const AdversaryParams& params() const noexcept { return params_; }
  bool active() const noexcept override { return active_; }

  /// The vehicle is designated an attacker (round-independent; the pure
  /// hash of (seed, region, vehicle) every consumer sees). Designation is
  /// scope-blind: a kColludingBias designee outside the target region is
  /// still "designated" but never misbehaves — see ever_attacks().
  bool is_attacker(core::RegionId region,
                   std::size_t vehicle) const noexcept override;

  /// The vehicle misbehaves in at least one round of any run: designated
  /// *and* inside the strategy's target scope. This is the ground-truth
  /// positive set for detection precision/recall, and the set honest-fleet
  /// statistics exclude; a colluder in a non-target region is permanently
  /// honest and belongs to neither.
  bool ever_attacks(core::RegionId region,
                    std::size_t vehicle) const noexcept override;

  /// The vehicle misbehaves *this round*: designated, inside the strategy's
  /// target scope, and (kFlipFlop) inside an attack window.
  bool attacking(std::size_t round, core::RegionId region,
                 std::size_t vehicle) const noexcept override;

  /// The decision the vehicle actually plays in the data plane. Free-riding
  /// strategies (kInflateSharing, kColludingBias, kFlipFlop while on)
  /// upload under the share-nothing decision regardless of their claim;
  /// telemetry-only strategies behave honestly. Returns `honest` unchanged
  /// for non-attacking (round, region, vehicle) triples.
  core::DecisionId behavior_decision(std::size_t round, core::RegionId region,
                                     std::size_t vehicle,
                                     core::DecisionId honest,
                                     const core::DecisionLattice& lattice)
      const noexcept override;

  /// The falsified report the vehicle submits this round (claimed decision
  /// 0 is the lattice's share-everything top by construction). Returns
  /// `honest` unchanged for non-attacking triples.
  VehicleReport falsify(std::size_t round, core::RegionId region,
                        std::size_t vehicle,
                        VehicleReport honest) const noexcept override;

  /// Checkpoint hooks. The model has no mutable state, so its snapshot is
  /// its kind tag alone; load_state rejects any other kind's snapshot.
  void save_state(Serializer& s) const override;
  void load_state(Deserializer& d) override;

 private:
  AdversaryParams params_;
  bool active_;
};

}  // namespace avcp::byzantine
