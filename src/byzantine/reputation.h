// Per-vehicle reputation scoring and the quarantine state machine.
//
// Single-round outlier rejection catches blatant telemetry lies, but a
// free-rider that falsifies only its *decision* claim looks clean in any
// one report — its tell is behavioural (it persistently uploads far less
// than peers making the same claim) and only emerges across rounds.
// ReputationTracker accumulates per-round residual scores per vehicle into
// an exponentially-decayed reputation and drives a two-state machine:
//
//     TRUSTED --[smoothed > quarantine_threshold,
//                after >= min_rounds observations]--> QUARANTINED
//     QUARANTINED --[smoothed <= rehab_threshold for
//                    rehab_rounds consecutive rounds]--> TRUSTED
//
// Quarantined vehicles keep being scored (their residuals are still
// computed against the trusted cohort), so a falsely-quarantined honest
// vehicle decays back below rehab_threshold and is released, while a
// persistent attacker keeps refreshing its score and stays in. Transitions
// are recorded as events for RoundReport / sim::metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "core/game.h"

namespace avcp::byzantine {

struct ReputationParams {
  /// EWMA decay: smoothed <- decay * smoothed + (1 - decay) * round_score.
  double decay = 0.8;
  double quarantine_threshold = 2.0;
  /// Smoothed score a quarantined vehicle must stay at or below to count a
  /// round toward rehabilitation.
  double rehab_threshold = 0.5;
  /// Consecutive clean rounds before a quarantined vehicle is released.
  std::size_t rehab_rounds = 8;
  /// Rounds observed before the first quarantine may fire (a blind-start
  /// guard: one early residual spike is not persistence).
  std::size_t min_rounds = 4;
  /// Per-round clip on the raw score; keeps one astronomical telemetry
  /// residual from dominating the EWMA forever.
  double score_cap = 6.0;
  /// Permanent-suspicion floor for repeat offenders: once a vehicle has
  /// been quarantined, its smoothed score never decays below this value.
  /// A released offender therefore re-enters quarantine faster than a
  /// first-time one — the counter to build-then-defect cycling, which
  /// relies on the EWMA forgetting each burst completely. 0 (default)
  /// disables the floor and keeps pre-existing trajectories bit-identical.
  double decay_floor = 0.0;

  /// Range-checks every field (same contract style as faults::FaultParams):
  /// decay in [0, 1), thresholds ordered, counters >= 1, cap and floor
  /// positive and consistent. Called by every consumer's constructor;
  /// violations raise ContractViolation.
  void validate() const;
};

/// One vehicle's reputation: the EWMA and the quarantine state machine
/// above — the only implementation of either. ReputationTracker keeps one
/// cell per (region, vehicle) slot; service::VehicleRecord carries one
/// with the vehicle across churn and migration.
struct ReputationCell {
  double smoothed = 0.0;
  std::uint64_t clean_streak = 0;
  bool quarantined = false;
  /// The vehicle has been quarantined at least once (drives the
  /// decay_floor permanent-suspicion semantics).
  bool ever_quarantined = false;

  enum class Transition : std::uint8_t { kNone, kQuarantined, kReleased };

  /// Folds one round's raw score (>= 0, clipped to params.score_cap) into
  /// the EWMA and steps the machine. `may_quarantine` is the caller's
  /// blind-start guard: enough rounds observed for persistence to show.
  Transition fold(double raw, const ReputationParams& params,
                  bool may_quarantine);

  friend bool operator==(const ReputationCell&,
                         const ReputationCell&) = default;
};

/// A quarantine transition (quarantined == false is a release).
struct QuarantineEvent {
  std::size_t round = 0;
  core::RegionId region = 0;
  std::size_t vehicle = 0;
  bool quarantined = true;
};

class ReputationTracker {
 public:
  ReputationTracker(std::size_t num_regions, std::size_t vehicles_per_region,
                    ReputationParams params = {});

  const ReputationParams& params() const noexcept { return params_; }

  /// Adds to the vehicle's raw score for the current round (telemetry and
  /// behavioural residuals accumulate; end_round folds them in).
  void observe(core::RegionId region, std::size_t vehicle, double score);

  /// Applies decay and state transitions for every vehicle and clears the
  /// pending raw scores. `round` stamps the emitted events.
  void end_round(std::size_t round);

  bool quarantined(core::RegionId region, std::size_t vehicle) const;
  double score(core::RegionId region, std::size_t vehicle) const;

  std::size_t quarantined_in(core::RegionId region) const;
  std::size_t total_quarantined() const;

  /// Rounds folded in so far (== end_round calls).
  std::size_t rounds() const noexcept { return rounds_; }

  const std::vector<QuarantineEvent>& events() const noexcept {
    return events_;
  }

  /// Checkpoint hooks: every cell's EWMA, pending score, rehab streak and
  /// quarantine flag, the round counter, and the event log — the complete
  /// cross-round state of the tracker. load_state rejects a snapshot whose
  /// fleet shape disagrees with the live tracker.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  struct Cell : ReputationCell {
    double pending = 0.0;  // this round's raw score so far
  };

  Cell& cell(core::RegionId region, std::size_t vehicle);
  const Cell& cell(core::RegionId region, std::size_t vehicle) const;

  ReputationParams params_;
  std::size_t vehicles_per_region_;
  std::size_t rounds_ = 0;
  std::vector<std::vector<Cell>> cells_;
  std::vector<QuarantineEvent> events_;
};

}  // namespace avcp::byzantine
