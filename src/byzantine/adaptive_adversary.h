// Closed-loop adversaries that observe the defense and adapt.
//
// AdversaryModel's five strategies are open-loop: their schedules are pure
// hashes fixed before round 0 and no attacker ever learns whether it was
// caught. AdaptiveAdversary closes the loop. Each designated attacker runs
// a per-vehicle state machine fed once per round — AFTER the defender's
// end_round — through a defender-controlled AdversaryObservation channel
// carrying exactly what a real vehicle could see: its own published EWMA
// reputation score, whether it is currently excluded (quarantined or
// distrusted), and how many of its region mates are quarantined. The
// defender's Beta-prior trust posterior (trust.h) is NOT observable; that
// asymmetry is why the ratcheting trust defense beats attackers that have
// fully learned the EWMA's forgetting dynamics.
//
// Policies (all free-ride through the claim channel only — the per-round
// MAD rejection makes any telemetry deviation stand out instantly against
// the exact honest cohort, so a reputation-aware attacker lies where only
// the cross-round behavioural channel can see: claim share-everything,
// upload nothing):
//
//   kBuildThenDefect  behave until >= build_rounds clean rounds AND the
//                     own published score has decayed to <= trust_target,
//                     then defect for defect_rounds (sized to stay under
//                     the EWMA quarantine threshold), then rebuild. The
//                     EWMA forgets each burst; the trust ratchet does not.
//   kThresholdProbe   binary-search the largest defect-burst length that
//                     avoids exclusion: try a burst, cool down, tighten
//                     [probe_lo, probe_hi] on the verdict, settle on the
//                     largest safe dose and repeat it forever. Backs off
//                     for good (dormant) if even probe_lo trips.
//   kRegionCollusion  per-region cohorts split into cohort_shifts rotation
//                     shifts (pure hash); each shift free-rides for
//                     shift_rounds in turn, so every member's EWMA decays
//                     for (cohort_shifts-1)*shift_rounds rounds between
//                     its bursts and never crosses the threshold. The
//                     region-level collusion channel (simultaneous
//                     zero-upload groups) is the counter.
//   kChurnExploit     defect persistently until excluded, then go dormant
//                     and wait out the quarantine; in the service layer
//                     (ServiceParams::churn_exploit) the dormant attacker
//                     instead leaves and rejoins under a fresh vehicle id
//                     to reset its reputation — keyed-identity suspicion
//                     carry-over is the counter.
//
// Determinism contract: designation and shift assignment are pure hashes
// of (seed, region, vehicle); everything else is a deterministic function
// of the observation history, which the system delivers in fixed order on
// its round thread. begin_round() freezes a per-round plan serially;
// attacking()/behavior_decision()/falsify() are const lookups of the
// frozen plan and safe to call from the parallel round stages;
// observe()/end_round() advance the machines serially after the
// defender's end_round. Trajectories are bit-identical at every thread
// count and across checkpoint resume (save_state/load_state capture every
// machine).
#pragma once

#include <cstdint>
#include <vector>

#include "byzantine/report.h"
#include "core/game.h"
#include "core/lattice.h"

namespace avcp::byzantine {

enum class AdaptivePolicy : std::uint8_t {
  kBuildThenDefect = 0,
  kThresholdProbe = 1,
  kRegionCollusion = 2,
  kChurnExploit = 3,
};

struct AdaptiveAdversaryParams {
  /// Fraction of each region's fleet designated as adaptive attackers.
  double attacker_fraction = 0.0;
  AdaptivePolicy policy = AdaptivePolicy::kBuildThenDefect;
  /// kBuildThenDefect/kChurnExploit: minimum clean rounds between bursts.
  std::size_t build_rounds = 6;
  /// kBuildThenDefect: defect-burst length. The default 4 is the longest
  /// run of zero-upload penalties whose EWMA (decay 0.8, raw 3.0) stays
  /// under the default quarantine threshold 2.0.
  std::size_t defect_rounds = 4;
  /// kBuildThenDefect/kChurnExploit: defect only once the own published
  /// score has decayed to this level — the "reputation-aware" gate.
  double trust_target = 0.5;
  /// kThresholdProbe: inclusive burst-length search bounds.
  std::size_t probe_lo = 1;
  std::size_t probe_hi = 12;
  /// kThresholdProbe: clean rounds between probe bursts (lets the EWMA
  /// decay and any delayed quarantine land before the verdict).
  std::size_t probe_cooldown = 10;
  /// kRegionCollusion: rotation shift count and rounds per shift.
  std::size_t cohort_shifts = 3;
  std::size_t shift_rounds = 1;
  std::uint64_t seed = 0;

  /// True if any vehicle is ever designated. any() == false is inert: the
  /// plant's round loop is bit-identical to running with no adversary.
  bool any() const noexcept { return attacker_fraction > 0.0; }

  /// Range-checks every field (FaultParams pattern): fraction a
  /// probability, counters >= 1, probe bounds ordered, target score
  /// non-negative. ContractViolation on failure.
  void validate() const;
};

class AdaptiveAdversary final : public Adversary {
 public:
  AdaptiveAdversary(std::size_t num_regions, std::size_t vehicles_per_region,
                    AdaptiveAdversaryParams params);

  const AdaptiveAdversaryParams& params() const noexcept { return params_; }
  bool active() const noexcept override { return active_; }

  /// Pure hash of (seed, region, vehicle) — round-independent designation,
  /// same scheme as AdversaryModel but on a distinct stream.
  bool is_attacker(core::RegionId region,
                   std::size_t vehicle) const noexcept override;

  /// Every designated adaptive attacker defects in at least one round of a
  /// long enough run — the ground-truth positive set for detection
  /// metrics and the set honest-fleet statistics exclude.
  bool ever_attacks(core::RegionId region,
                    std::size_t vehicle) const noexcept override {
    return is_attacker(region, vehicle);
  }

  /// Freezes this round's attack plan from the current machine states.
  /// Serial: call on the round thread before any parallel stage.
  void begin_round(std::size_t round) override;

  /// The vehicle defects this round (frozen-plan lookup; requires
  /// begin_round(round) to have run). Safe from parallel stages.
  bool attacking(std::size_t round, core::RegionId region,
                 std::size_t vehicle) const noexcept override;

  /// The decision actually played in the data plane: the share-nothing
  /// lattice bottom while defecting (free-ride), `honest` otherwise.
  core::DecisionId behavior_decision(std::size_t round, core::RegionId region,
                                     std::size_t vehicle,
                                     core::DecisionId honest,
                                     const core::DecisionLattice& lattice)
      const noexcept override;

  /// The falsified S1 report while defecting: claim the share-everything
  /// top, telemetry untouched (the adaptive strategies lie only where the
  /// per-round MAD rejection cannot see). Returns `honest` unchanged for
  /// non-defecting triples.
  VehicleReport falsify(std::size_t round, core::RegionId region,
                        std::size_t vehicle,
                        VehicleReport honest) const noexcept override;

  /// Delivers the defender-published feedback for one designated attacker.
  /// Serial: the system calls this on its round thread after the
  /// pipeline's end_round, in (region, vehicle) order.
  void observe(core::RegionId region, std::size_t vehicle,
               const AdversaryObservation& obs) override;

  /// Advances every attacker's state machine one round. Serial, after all
  /// observe() calls for the round.
  void end_round(std::size_t round) override;

  /// Rounds folded in so far (== end_round calls).
  std::size_t rounds() const noexcept { return rounds_; }

  /// Attackers currently dormant (backed off for good after exclusion or
  /// a fully-suppressed probe).
  std::size_t total_dormant() const override;

  /// Checkpoint hooks: the kind tag, then every per-vehicle machine plus
  /// the round counter. Call between rounds only (after end_round, before
  /// the next begin_round); the frozen plan is rebuilt by begin_round and
  /// is not part of the state. load_state rejects another kind's snapshot
  /// and a mismatched fleet shape.
  void save_state(Serializer& s) const override;
  void load_state(Deserializer& d) override;

 private:
  enum class Phase : std::uint8_t {
    kBuild = 0,     // behaving; waiting out build_rounds / cooldown
    kAttack = 1,    // defecting this burst
    kDormant = 2,   // backed off for good
  };

  struct Cell {
    Phase phase = Phase::kBuild;
    /// Rounds spent in the current phase.
    std::size_t phase_rounds = 0;
    /// kThresholdProbe: current search bounds and the dose under test.
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t burst_len = 0;
    /// Exclusion observed since the current burst started (probe verdict).
    bool tripped = false;
    /// Latest observation.
    double last_score = 0.0;
    bool last_excluded = false;
    std::size_t last_region_excluded = 0;
  };

  Cell& cell(core::RegionId region, std::size_t vehicle);
  const Cell& cell(core::RegionId region, std::size_t vehicle) const;

  /// kRegionCollusion: the vehicle's rotation shift (pure hash).
  std::size_t shift_of(core::RegionId region, std::size_t vehicle)
      const noexcept;

  /// Advances one attacker's machine from its latest observation.
  void advance(Cell& c);

  AdaptiveAdversaryParams params_;
  bool active_;
  std::size_t vehicles_per_region_;
  std::size_t rounds_ = 0;
  std::vector<std::vector<Cell>> cells_;
  /// plans_[region][vehicle] != 0: defect this round (frozen by
  /// begin_round, read-only during the parallel stages).
  std::vector<std::vector<std::uint8_t>> plans_;
};

}  // namespace avcp::byzantine
