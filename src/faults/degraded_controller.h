// Graceful degradation for the cloud control plane.
//
// The paper's Algorithm 2 assumes the cloud sees every region's decision
// report every round (step S1). Under report loss or an edge-server outage
// the inner controller would act on garbage: a missing row would read as
// an arbitrary stale or zeroed distribution and the computed ratio could
// jump the population anywhere the smoothness bound allows.
//
// DegradedController wraps any core::Controller and consults a FaultModel
// for which reports actually arrived:
//   - fresh report          -> delegate to the inner controller as usual;
//   - stale within budget   -> substitute the last good report (the cloud
//                              acts on slightly old but real data);
//   - older than the budget -> hold the region's ratio until reports
//                              resume;
//   - report resumes        -> re-synchronize and delegate again.
// The wrapper additionally enforces the invariants the plant relies on:
// every emitted ratio lies in [0, 1] and |x_i^{t+1} - x_i^t| <= Lambda,
// even if the inner controller misbehaves.
//
// Round accounting: the wrapper advances its round counter once per
// next_x call. The plant calls the controller exactly once per framework
// round, so a CooperativePerceptionSystem and a DegradedController sharing
// one FaultModel stay in lock-step from round 0.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fds.h"
#include "faults/fault_model.h"

namespace avcp::faults {

struct DegradedOptions {
  /// Rounds a held (stale) report stays usable before the region is
  /// treated as blind. 0 = only fresh reports are acted on.
  std::size_t staleness_budget = 3;
  /// Lambda of Eq. (13): per-round cap on |x_i^{t+1} - x_i^t|, enforced on
  /// the wrapper's output. Should match the inner controller's bound.
  double max_step = 0.05;
};

class DegradedController final : public core::Controller {
 public:
  /// `inner` and `faults` must outlive the wrapper.
  DegradedController(core::Controller& inner, const FaultModel& faults,
                     DegradedOptions options = {});

  std::vector<double> next_x(const core::GameState& state,
                             const std::vector<double>& x_prev) override;
  void next_x_into(const core::GameState& state,
                   const std::vector<double>& x_prev,
                   std::vector<double>& out) override;

  /// Same step, but with the freshness verdict supplied by the caller:
  /// fresh_mask[i] != 0 means a usable report for region i arrived this
  /// round (null = consult the FaultModel, the overload above). The
  /// degraded-network transport uses this to route delivered, delayed, and
  /// lost backhaul reports through the same hold machinery — the
  /// channel bounds how *old* consumed data can be (max_staleness), this
  /// wrapper bounds how long a *blind* region may coast (staleness_budget).
  void next_x_into(const core::GameState& state,
                   const std::vector<double>& x_prev,
                   std::vector<double>& out, const std::uint8_t* fresh_mask);

  /// Rounds processed so far (== number of next_x calls).
  std::size_t round() const noexcept { return round_; }

  /// Rounds since the last good report of region i (0 = fresh this round);
  /// kNever until the first report arrives.
  static constexpr std::size_t kNever = ~std::size_t{0};
  std::size_t report_age(core::RegionId i) const;

  /// True if region i was blind (no usable report) in the last round.
  bool degraded(core::RegionId i) const;

  const FaultCounters& counters() const noexcept { return counters_; }

  /// Forgets all held reports and restarts the round counter.
  void reset();

  /// Checkpoint hooks: round counter, held reports with their ages, the
  /// degraded flags, and the loss counters — everything next_x consults
  /// beyond its arguments, so a restored wrapper emits the same ratios.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  core::Controller& inner_;
  const FaultModel& faults_;
  DegradedOptions options_;
  std::size_t round_ = 0;
  /// Last good report per region (uniform prior until one arrives).
  core::GameState last_good_;
  std::vector<std::size_t> age_;
  std::vector<std::uint8_t> degraded_;
  FaultCounters counters_;
  /// Grow-only scratch for the inner controller's ratios (next_x_into).
  std::vector<double> inner_x_;
};

}  // namespace avcp::faults
