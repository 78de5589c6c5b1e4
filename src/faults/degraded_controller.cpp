#include "faults/degraded_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp::faults {

DegradedController::DegradedController(core::Controller& inner,
                                       const FaultModel& faults,
                                       DegradedOptions options)
    : inner_(inner), faults_(faults), options_(options) {
  AVCP_EXPECT(options_.max_step > 0.0);
}

std::vector<double> DegradedController::next_x(
    const core::GameState& state, const std::vector<double>& x_prev) {
  std::vector<double> x_next;
  next_x_into(state, x_prev, x_next);
  return x_next;
}

void DegradedController::next_x_into(const core::GameState& state,
                                     const std::vector<double>& x_prev,
                                     std::vector<double>& out) {
  next_x_into(state, x_prev, out, nullptr);
}

void DegradedController::next_x_into(const core::GameState& state,
                                     const std::vector<double>& x_prev,
                                     std::vector<double>& out,
                                     const std::uint8_t* fresh_mask) {
  const std::size_t m = state.num_regions();
  AVCP_EXPECT(m >= 1);
  AVCP_EXPECT(x_prev.size() == m);
  if (last_good_.p.size() != m) {
    // Uniform prior: before any report arrives the cloud knows nothing
    // about the region's decision mix (and treats it as blind anyway).
    AVCP_EXPECT(!state.p.empty());
    last_good_.p.assign(
        m, std::vector<double>(state.p.front().size(),
                               1.0 / static_cast<double>(state.p.front().size())));
    age_.assign(m, kNever);
    degraded_.assign(m, 0);
  }

  // Ingest this round's reports.
  for (core::RegionId i = 0; i < m; ++i) {
    const bool fresh = fresh_mask != nullptr
                           ? fresh_mask[i] != 0
                           : faults_.report_available(round_, i);
    if (fresh) {
      last_good_.p[i] = state.p[i];
      age_[i] = 0;
    } else {
      ++counters_.reports_lost;
      if (age_[i] != kNever) ++age_[i];
    }
    degraded_[i] =
        (age_[i] == kNever || age_[i] > options_.staleness_budget) ? 1 : 0;
  }

  // The inner controller sees the last good report of every region: stale
  // rows are real (just old) data, and blind rows only matter through the
  // inter-region coupling terms, where old data beats garbage.
  inner_.next_x_into(last_good_, x_prev, inner_x_);
  const std::vector<double>& x_inner = inner_x_;
  AVCP_ENSURE(x_inner.size() == m);

  std::vector<double>& x_next = out;
  x_next.assign(m, 0.0);
  for (core::RegionId i = 0; i < m; ++i) {
    const double xi = std::clamp(x_prev[i], 0.0, 1.0);
    if (!degraded_[i]) {
      // A non-finite inner ratio (a buggy or poisoned inner controller) is
      // treated as no update: the wrapper's safety contract is that the
      // applied ratio is always a valid ratio, so hold the last good one
      // rather than propagate NaN into the plant.
      const double target = std::isfinite(x_inner[i]) ? x_inner[i] : xi;
      const double delta =
          std::clamp(target - xi, -options_.max_step, options_.max_step);
      x_next[i] = std::clamp(xi + delta, 0.0, 1.0);
      continue;
    }
    x_next[i] = xi;  // blind: hold until reports resume
  }
  ++round_;
}

std::size_t DegradedController::report_age(core::RegionId i) const {
  AVCP_EXPECT(i < age_.size());
  return age_[i];
}

bool DegradedController::degraded(core::RegionId i) const {
  AVCP_EXPECT(i < degraded_.size());
  return degraded_[i] != 0;
}

void DegradedController::reset() {
  round_ = 0;
  last_good_.p.clear();
  age_.clear();
  degraded_.clear();
  counters_ = FaultCounters{};
}

void DegradedController::save_state(Serializer& s) const {
  s.put_u64(round_);
  last_good_.save_state(s);
  put_size_vec(s, age_);
  put_u8_vec(s, degraded_);
  counters_.save_state(s);
}

void DegradedController::load_state(Deserializer& d) {
  // Parse into locals and commit only once every read has succeeded, so a
  // rejected snapshot leaves the wrapper as it was.
  const std::uint64_t round = d.get_u64();
  core::GameState last_good;
  last_good.load_state(d);
  std::vector<std::size_t> age = get_size_vec(d);
  std::vector<std::uint8_t> degraded = get_u8_vec(d);
  Deserializer::check(age.size() == last_good.p.size() &&
                          degraded.size() == last_good.p.size(),
                      "DegradedController per-region vectors disagree");
  FaultCounters counters;
  counters.load_state(d);
  round_ = static_cast<std::size_t>(round);
  last_good_ = std::move(last_good);
  age_ = std::move(age);
  degraded_ = std::move(degraded);
  counters_ = counters;
}

}  // namespace avcp::faults
