#include "byzantine/reputation.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp::byzantine {

namespace {

/// A decayed EWMA below this is indistinguishable from clean: it is snapped
/// to exactly 0 so a rehab_threshold of 0.0 ("release only a fully clean
/// score") is reachable in finitely many rounds instead of waiting for the
/// geometric decay to underflow. Far below every threshold any consumer
/// compares against, so trajectories of realistic configurations are
/// unaffected.
constexpr double kCleanSnap = 1e-12;

}  // namespace

void ReputationParams::validate() const {
  AVCP_EXPECT(decay >= 0.0 && decay < 1.0);
  AVCP_EXPECT(quarantine_threshold > 0.0);
  AVCP_EXPECT(rehab_threshold >= 0.0 &&
              rehab_threshold < quarantine_threshold);
  AVCP_EXPECT(rehab_rounds >= 1);
  AVCP_EXPECT(min_rounds >= 1);
  AVCP_EXPECT(score_cap > 0.0);
  AVCP_EXPECT(decay_floor >= 0.0 && decay_floor < quarantine_threshold);
}

ReputationTracker::ReputationTracker(std::size_t num_regions,
                                     std::size_t vehicles_per_region,
                                     ReputationParams params)
    : params_(params), vehicles_per_region_(vehicles_per_region) {
  AVCP_EXPECT(num_regions >= 1);
  AVCP_EXPECT(vehicles_per_region >= 1);
  params_.validate();
  cells_.assign(num_regions, std::vector<Cell>(vehicles_per_region));
}

ReputationTracker::Cell& ReputationTracker::cell(core::RegionId region,
                                                 std::size_t vehicle) {
  AVCP_EXPECT(region < cells_.size());
  AVCP_EXPECT(vehicle < vehicles_per_region_);
  return cells_[region][vehicle];
}

const ReputationTracker::Cell& ReputationTracker::cell(
    core::RegionId region, std::size_t vehicle) const {
  AVCP_EXPECT(region < cells_.size());
  AVCP_EXPECT(vehicle < vehicles_per_region_);
  return cells_[region][vehicle];
}

void ReputationTracker::observe(core::RegionId region, std::size_t vehicle,
                                double score) {
  AVCP_EXPECT(score >= 0.0);
  cell(region, vehicle).pending += score;
}

ReputationCell::Transition ReputationCell::fold(double raw,
                                                const ReputationParams& params,
                                                bool may_quarantine) {
  smoothed = params.decay * smoothed +
             (1.0 - params.decay) * std::min(raw, params.score_cap);
  if (smoothed < kCleanSnap) smoothed = 0.0;
  if (ever_quarantined && smoothed < params.decay_floor) {
    smoothed = params.decay_floor;
  }
  if (!quarantined) {
    if (may_quarantine && smoothed > params.quarantine_threshold) {
      quarantined = true;
      ever_quarantined = true;
      clean_streak = 0;
      return Transition::kQuarantined;
    }
    return Transition::kNone;
  }
  // Closed boundary: a score sitting exactly AT the rehab threshold counts
  // as clean. The open comparison made rehab_threshold == 0.0 (a "release
  // only a fully clean score" policy) unreachable — a vehicle quarantined on
  // the exact final round of an attack window decayed geometrically toward
  // 0 but never strictly below it, so it never re-entered the trusted
  // scoring cohort. With the snap above and the closed test the release
  // fires after the decay completes.
  if (smoothed <= params.rehab_threshold) {
    if (++clean_streak >= params.rehab_rounds) {
      quarantined = false;
      clean_streak = 0;
      return Transition::kReleased;
    }
  } else {
    clean_streak = 0;
  }
  return Transition::kNone;
}

void ReputationTracker::end_round(std::size_t round) {
  using Transition = ReputationCell::Transition;
  // The blind-start guard counts tracker rounds: every slot is observed
  // every round.
  const bool may_quarantine = rounds_ + 1 >= params_.min_rounds;
  for (core::RegionId i = 0; i < cells_.size(); ++i) {
    for (std::size_t v = 0; v < cells_[i].size(); ++v) {
      Cell& c = cells_[i][v];
      const Transition t = c.fold(c.pending, params_, may_quarantine);
      c.pending = 0.0;
      if (t != Transition::kNone) {
        events_.push_back({round, i, v, t == Transition::kQuarantined});
      }
    }
  }
  ++rounds_;
}

bool ReputationTracker::quarantined(core::RegionId region,
                                    std::size_t vehicle) const {
  return cell(region, vehicle).quarantined;
}

double ReputationTracker::score(core::RegionId region,
                                std::size_t vehicle) const {
  return cell(region, vehicle).smoothed;
}

std::size_t ReputationTracker::quarantined_in(core::RegionId region) const {
  AVCP_EXPECT(region < cells_.size());
  std::size_t count = 0;
  for (const Cell& c : cells_[region]) {
    if (c.quarantined) ++count;
  }
  return count;
}

std::size_t ReputationTracker::total_quarantined() const {
  std::size_t count = 0;
  for (core::RegionId i = 0; i < cells_.size(); ++i) {
    count += quarantined_in(i);
  }
  return count;
}

void ReputationTracker::save_state(Serializer& s) const {
  s.put_u64(cells_.size());
  s.put_u64(vehicles_per_region_);
  s.put_u64(rounds_);
  for (const std::vector<Cell>& region : cells_) {
    for (const Cell& c : region) {
      s.put_f64(c.smoothed);
      s.put_f64(c.pending);
      s.put_u64(c.clean_streak);
      s.put_bool(c.quarantined);
      s.put_bool(c.ever_quarantined);
    }
  }
  s.put_u64(events_.size());
  for (const QuarantineEvent& e : events_) {
    s.put_u64(e.round);
    s.put_u32(e.region);
    s.put_u64(e.vehicle);
    s.put_bool(e.quarantined);
  }
}

void ReputationTracker::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == cells_.size(),
                      "ReputationTracker region count mismatch");
  Deserializer::check(d.get_u64() == vehicles_per_region_,
                      "ReputationTracker fleet size mismatch");
  rounds_ = static_cast<std::size_t>(d.get_u64());
  for (std::vector<Cell>& region : cells_) {
    for (Cell& c : region) {
      c.smoothed = d.get_f64();
      c.pending = d.get_f64();
      c.clean_streak = d.get_u64();
      c.quarantined = d.get_bool();
      c.ever_quarantined = d.get_bool();
    }
  }
  const std::uint64_t num_events = d.get_u64();
  Deserializer::check(num_events <= d.remaining() / 21,
                      "ReputationTracker event count exceeds payload");
  events_.clear();
  events_.reserve(static_cast<std::size_t>(num_events));
  for (std::uint64_t i = 0; i < num_events; ++i) {
    QuarantineEvent e;
    e.round = static_cast<std::size_t>(d.get_u64());
    e.region = d.get_u32();
    e.vehicle = static_cast<std::size_t>(d.get_u64());
    e.quarantined = d.get_bool();
    events_.push_back(e);
  }
}

}  // namespace avcp::byzantine
