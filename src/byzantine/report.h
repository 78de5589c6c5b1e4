// Per-vehicle telemetry reports (framework step S1, hardened).
//
// The paper's S1 report carries only the vehicle's data-sharing decision;
// the cloud trusts it implicitly. A production control plane also ships the
// telemetry channels the cloud's model consumes — the region utility
// coefficient beta, the sharing frequency gamma, and the local traffic
// density that shapes the desired fields — and none of them can be trusted
// either: a single vehicle that falsifies its report can steer a region's
// desired field arbitrarily. VehicleReport is the unit the Byzantine-robust
// ingestion path (robust_aggregator.h, report_pipeline.h) aggregates and
// an Adversary corrupts.
#pragma once

#include <cstddef>

#include "core/game.h"
#include "core/lattice.h"

namespace avcp::byzantine {

/// What one vehicle tells its edge server (and, through it, the cloud)
/// each round. Honest vehicles report ground truth; adversarial vehicles
/// falsify any subset of the channels (adversary_model.h).
struct VehicleReport {
  /// Claimed data-sharing decision (the S1 channel of the paper).
  core::DecisionId decision = 0;
  /// Claimed region utility coefficient beta_i.
  double beta = 0.0;
  /// Claimed sharing frequency (the vehicle's view of gamma).
  double gamma = 0.0;
  /// Claimed local traffic density (vehicles observed nearby).
  double density = 0.0;
};

/// What the defender lets an attacker see about itself each round. The
/// channel is defender-controlled: it publishes the EWMA score and the
/// exclusion verdict but never the trust posterior.
struct AdversaryObservation {
  /// The vehicle's published (EWMA-smoothed) reputation score.
  double own_score = 0.0;
  /// The vehicle is currently excluded (quarantined or distrusted).
  bool excluded = false;
  /// Region mates currently quarantined (collective-detection signal).
  std::size_t region_quarantined = 0;
};

/// The one seam through which a liar enters the plant's S1 report. Both
/// attacker families implement it: the open-loop AdversaryModel
/// (adversary_model.h, schedules fixed by pure hashes before round 0) and
/// the closed-loop AdaptiveAdversary (adaptive_adversary.h, per-vehicle
/// machines fed by the defender's published verdicts). The system calls
/// begin_round before its parallel stages, the const queries from inside
/// them, and observe/end_round serially after the defender's end_round;
/// the hooks are no-ops for an open-loop model.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// False when no vehicle can ever attack; the system then runs as if no
  /// adversary were attached.
  virtual bool active() const noexcept = 0;

  /// The vehicle is designated an attacker (round-independent pure hash).
  virtual bool is_attacker(core::RegionId region,
                           std::size_t vehicle) const noexcept = 0;

  /// The vehicle misbehaves in at least one round: the ground-truth
  /// positive set for detection metrics and the set honest-fleet
  /// statistics exclude.
  virtual bool ever_attacks(core::RegionId region,
                            std::size_t vehicle) const noexcept = 0;

  /// The vehicle misbehaves this round (it then never revises).
  virtual bool attacking(std::size_t round, core::RegionId region,
                         std::size_t vehicle) const noexcept = 0;

  /// The decision the vehicle plays in the data plane; `honest` unchanged
  /// for non-attacking triples.
  virtual core::DecisionId behavior_decision(
      std::size_t round, core::RegionId region, std::size_t vehicle,
      core::DecisionId honest,
      const core::DecisionLattice& lattice) const noexcept = 0;

  /// The report the vehicle submits this round; `honest` unchanged for
  /// non-attacking triples.
  virtual VehicleReport falsify(std::size_t round, core::RegionId region,
                                std::size_t vehicle,
                                VehicleReport honest) const noexcept = 0;

  /// Closed-loop hooks. begin_round freezes the round's plan; observe
  /// delivers one designated attacker's published feedback; end_round
  /// advances every machine. total_dormant counts attackers that backed
  /// off for good.
  virtual void begin_round(std::size_t /*round*/) {}
  virtual void observe(core::RegionId /*region*/, std::size_t /*vehicle*/,
                       const AdversaryObservation& /*obs*/) {}
  virtual void end_round(std::size_t /*round*/) {}
  virtual std::size_t total_dormant() const { return 0; }

  /// Checkpoint hooks. Each implementation writes a tag naming its own
  /// kind first and load_state rejects any other kind's snapshot with
  /// SerialError, so a snapshot cannot cross between attacker families.
  virtual void save_state(Serializer& s) const = 0;
  virtual void load_state(Deserializer& d) = 0;

 protected:
  Adversary() = default;
  Adversary(const Adversary&) = default;
  Adversary(Adversary&&) = default;
  Adversary& operator=(const Adversary&) = default;
  Adversary& operator=(Adversary&&) = default;
};

}  // namespace avcp::byzantine
