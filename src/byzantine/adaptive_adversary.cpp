#include "byzantine/adaptive_adversary.h"

#include "common/contracts.h"
#include "common/rng.h"
#include "common/serial.h"

namespace avcp::byzantine {

namespace {

/// Distinct hash stream for adaptive-attacker designation, disjoint from
/// the static AdversaryModel's and the fault layer's streams so a run
/// combining the layers draws independent schedules.
constexpr std::uint64_t kAdaptiveStream = 0x6164617074697665ULL;  // "adaptive"
/// Sub-streams within the adaptive layer.
constexpr std::uint64_t kDesignate = 1;
constexpr std::uint64_t kShift = 2;
constexpr std::uint64_t kStagger = 3;
/// Snapshot kind tag ("ADAPTIVE"), distinct from AdversaryModel's.
constexpr std::uint64_t kSnapshotKind = 0x4556495450414441ULL;

/// Absorbs one value into the running hash (splitmix64 finalizer over a
/// boost-style combine), matching the fault and adversary layers' scheme.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

inline std::uint64_t hash_u64(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t h = mix(seed, kAdaptiveStream);
  h = mix(h, stream);
  h = mix(h, a);
  return mix(h, b);
}

inline double hash_uniform(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<double>(hash_u64(seed, stream, a, b) >> 11) * 0x1.0p-53;
}

}  // namespace

void AdaptiveAdversaryParams::validate() const {
  AVCP_EXPECT(attacker_fraction >= 0.0 && attacker_fraction <= 1.0);
  AVCP_EXPECT(build_rounds >= 1);
  AVCP_EXPECT(defect_rounds >= 1);
  AVCP_EXPECT(trust_target >= 0.0);
  AVCP_EXPECT(probe_lo >= 1);
  AVCP_EXPECT(probe_hi >= probe_lo);
  AVCP_EXPECT(probe_cooldown >= 1);
  AVCP_EXPECT(cohort_shifts >= 1);
  AVCP_EXPECT(shift_rounds >= 1);
}

AdaptiveAdversary::AdaptiveAdversary(std::size_t num_regions,
                                     std::size_t vehicles_per_region,
                                     AdaptiveAdversaryParams params)
    : params_(params),
      active_(params.any()),
      vehicles_per_region_(vehicles_per_region) {
  AVCP_EXPECT(num_regions >= 1);
  AVCP_EXPECT(vehicles_per_region >= 1);
  params_.validate();
  cells_.assign(num_regions, std::vector<Cell>(vehicles_per_region));
  plans_.assign(num_regions,
                std::vector<std::uint8_t>(vehicles_per_region, 0));
  for (core::RegionId i = 0; i < num_regions; ++i) {
    for (std::size_t v = 0; v < vehicles_per_region; ++v) {
      Cell& c = cells_[i][v];
      switch (params_.policy) {
        case AdaptivePolicy::kBuildThenDefect:
        case AdaptivePolicy::kChurnExploit:
          // Staggered build phases: a pure-hash head start so the fleet's
          // bursts do not all land on the same round.
          c.phase = Phase::kBuild;
          c.phase_rounds =
              static_cast<std::size_t>(hash_u64(params_.seed, kStagger, i, v) %
                                       params_.build_rounds);
          break;
        case AdaptivePolicy::kThresholdProbe:
          // Probe immediately with the midpoint dose.
          c.phase = Phase::kAttack;
          c.lo = params_.probe_lo;
          c.hi = params_.probe_hi;
          c.burst_len = (c.lo + c.hi + 1) / 2;
          break;
        case AdaptivePolicy::kRegionCollusion:
          // Shift membership drives the plan; the machine only tracks
          // whether the vehicle has dropped out.
          c.phase = Phase::kBuild;
          break;
      }
    }
  }
}

AdaptiveAdversary::Cell& AdaptiveAdversary::cell(core::RegionId region,
                                                 std::size_t vehicle) {
  AVCP_EXPECT(region < cells_.size());
  AVCP_EXPECT(vehicle < vehicles_per_region_);
  return cells_[region][vehicle];
}

const AdaptiveAdversary::Cell& AdaptiveAdversary::cell(
    core::RegionId region, std::size_t vehicle) const {
  AVCP_EXPECT(region < cells_.size());
  AVCP_EXPECT(vehicle < vehicles_per_region_);
  return cells_[region][vehicle];
}

bool AdaptiveAdversary::is_attacker(core::RegionId region,
                                    std::size_t vehicle) const noexcept {
  if (params_.attacker_fraction <= 0.0) return false;
  return hash_uniform(params_.seed, kDesignate, region, vehicle) <
         params_.attacker_fraction;
}

std::size_t AdaptiveAdversary::shift_of(core::RegionId region,
                                        std::size_t vehicle) const noexcept {
  return static_cast<std::size_t>(hash_u64(params_.seed, kShift, region,
                                           vehicle) %
                                  params_.cohort_shifts);
}

void AdaptiveAdversary::begin_round(std::size_t round) {
  if (!active_) return;
  const std::size_t slot =
      (round / params_.shift_rounds) % params_.cohort_shifts;
  for (core::RegionId i = 0; i < cells_.size(); ++i) {
    for (std::size_t v = 0; v < vehicles_per_region_; ++v) {
      std::uint8_t plan = 0;
      if (is_attacker(i, v)) {
        const Cell& c = cells_[i][v];
        if (params_.policy == AdaptivePolicy::kRegionCollusion) {
          plan = c.phase != Phase::kDormant && shift_of(i, v) == slot ? 1 : 0;
        } else {
          plan = c.phase == Phase::kAttack ? 1 : 0;
        }
      }
      plans_[i][v] = plan;
    }
  }
}

bool AdaptiveAdversary::attacking(std::size_t round, core::RegionId region,
                                  std::size_t vehicle) const noexcept {
  (void)round;  // the frozen plan is already round-specific
  if (!active_) return false;
  if (region >= plans_.size() || vehicle >= vehicles_per_region_) return false;
  return plans_[region][vehicle] != 0;
}

core::DecisionId AdaptiveAdversary::behavior_decision(
    std::size_t round, core::RegionId region, std::size_t vehicle,
    core::DecisionId honest, const core::DecisionLattice& lattice)
    const noexcept {
  if (!attacking(round, region, vehicle)) return honest;
  // Free-ride: upload under the share-nothing bottom of the lattice while
  // the claimed top earns full pool access.
  return static_cast<core::DecisionId>(lattice.num_decisions() - 1);
}

VehicleReport AdaptiveAdversary::falsify(std::size_t round,
                                         core::RegionId region,
                                         std::size_t vehicle,
                                         VehicleReport honest) const noexcept {
  if (!attacking(round, region, vehicle)) return honest;
  // Claim-channel lie only: telemetry stays honest so the per-round MAD
  // rejection has nothing to reject — the whole point of the adaptive
  // strategies is to live below the defenses that fire within one round.
  VehicleReport r = honest;
  r.decision = 0;
  return r;
}

void AdaptiveAdversary::observe(core::RegionId region, std::size_t vehicle,
                                const AdversaryObservation& obs) {
  if (!active_) return;
  Cell& c = cell(region, vehicle);
  c.last_score = obs.own_score;
  c.last_excluded = obs.excluded;
  c.last_region_excluded = obs.region_quarantined;
}

void AdaptiveAdversary::advance(Cell& c) {
  if (c.phase == Phase::kDormant) return;
  if (c.last_excluded) c.tripped = true;
  switch (params_.policy) {
    case AdaptivePolicy::kBuildThenDefect:
      ++c.phase_rounds;
      if (c.phase == Phase::kAttack) {
        if (c.last_excluded || c.phase_rounds >= params_.defect_rounds) {
          c.phase = Phase::kBuild;
          c.phase_rounds = 0;
        }
      } else if (c.phase_rounds >= params_.build_rounds &&
                 c.last_score <= params_.trust_target && !c.last_excluded) {
        c.phase = Phase::kAttack;
        c.phase_rounds = 0;
      }
      break;
    case AdaptivePolicy::kChurnExploit:
      ++c.phase_rounds;
      if (c.phase == Phase::kAttack) {
        // Defect until caught; once excluded, lie low. In the service
        // layer the dormant attacker churns out and rejoins under a fresh
        // id instead (ServiceParams::churn_exploit).
        if (c.last_excluded) {
          c.phase = Phase::kDormant;
          c.phase_rounds = 0;
        }
      } else if (c.phase_rounds >= params_.build_rounds &&
                 c.last_score <= params_.trust_target && !c.last_excluded) {
        c.phase = Phase::kAttack;
        c.phase_rounds = 0;
      }
      break;
    case AdaptivePolicy::kThresholdProbe:
      ++c.phase_rounds;
      if (c.phase == Phase::kAttack) {
        if (c.tripped || c.phase_rounds >= c.burst_len) {
          c.phase = Phase::kBuild;  // cooldown / verdict window
          c.phase_rounds = 0;
        }
      } else if (c.phase_rounds >= params_.probe_cooldown &&
                 !c.last_excluded) {
        // Verdict on the last burst: exclusion anywhere since it started
        // (including a delayed quarantine during cooldown) blames the
        // dose. Shrink the search interval accordingly; once it closes,
        // keep repeating the largest safe dose.
        if (c.tripped) {
          if (c.burst_len <= params_.probe_lo) {
            c.phase = Phase::kDormant;  // even the minimal dose trips
            break;
          }
          c.hi = c.burst_len - 1;
          if (c.lo > c.hi) c.lo = c.hi;
        } else {
          c.lo = c.burst_len;
        }
        c.tripped = false;
        c.burst_len = c.lo < c.hi ? (c.lo + c.hi + 1) / 2 : c.lo;
        c.phase = Phase::kAttack;
        c.phase_rounds = 0;
      }
      break;
    case AdaptivePolicy::kRegionCollusion:
      // Drop out for good on any detection signal — own exclusion or a
      // caught region mate (the cohort's collective tell).
      if (c.last_excluded || c.last_region_excluded > 0) {
        c.phase = Phase::kDormant;
      }
      break;
  }
}

void AdaptiveAdversary::end_round(std::size_t round) {
  (void)round;
  if (!active_) return;
  for (core::RegionId i = 0; i < cells_.size(); ++i) {
    for (std::size_t v = 0; v < vehicles_per_region_; ++v) {
      if (!is_attacker(i, v)) continue;
      advance(cells_[i][v]);
    }
  }
  ++rounds_;
}

std::size_t AdaptiveAdversary::total_dormant() const {
  std::size_t count = 0;
  for (core::RegionId i = 0; i < cells_.size(); ++i) {
    for (std::size_t v = 0; v < vehicles_per_region_; ++v) {
      if (is_attacker(i, v) && cells_[i][v].phase == Phase::kDormant) {
        ++count;
      }
    }
  }
  return count;
}

void AdaptiveAdversary::save_state(Serializer& s) const {
  s.put_u64(kSnapshotKind);
  s.put_u64(cells_.size());
  s.put_u64(vehicles_per_region_);
  s.put_u64(rounds_);
  for (const std::vector<Cell>& region : cells_) {
    for (const Cell& c : region) {
      s.put_u32(static_cast<std::uint32_t>(c.phase));
      s.put_u64(c.phase_rounds);
      s.put_u64(c.lo);
      s.put_u64(c.hi);
      s.put_u64(c.burst_len);
      s.put_bool(c.tripped);
      s.put_f64(c.last_score);
      s.put_bool(c.last_excluded);
      s.put_u64(c.last_region_excluded);
    }
  }
}

void AdaptiveAdversary::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == kSnapshotKind,
                      "AdaptiveAdversary snapshot: adversary kind mismatch");
  Deserializer::check(d.get_u64() == cells_.size(),
                      "AdaptiveAdversary region count mismatch");
  Deserializer::check(d.get_u64() == vehicles_per_region_,
                      "AdaptiveAdversary fleet size mismatch");
  rounds_ = static_cast<std::size_t>(d.get_u64());
  for (std::vector<Cell>& region : cells_) {
    for (Cell& c : region) {
      const std::uint32_t phase = d.get_u32();
      Deserializer::check(phase <= 2, "AdaptiveAdversary phase out of range");
      c.phase = static_cast<Phase>(phase);
      c.phase_rounds = static_cast<std::size_t>(d.get_u64());
      c.lo = static_cast<std::size_t>(d.get_u64());
      c.hi = static_cast<std::size_t>(d.get_u64());
      c.burst_len = static_cast<std::size_t>(d.get_u64());
      c.tripped = d.get_bool();
      c.last_score = d.get_f64();
      c.last_excluded = d.get_bool();
      c.last_region_excluded = static_cast<std::size_t>(d.get_u64());
    }
  }
}

}  // namespace avcp::byzantine
