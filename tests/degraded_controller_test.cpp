// DegradedController: graceful degradation of the cloud control plane under
// report loss and edge-server outages — Lambda/range invariants, staleness
// budget, the blind-region hold, and re-synchronization when reports resume.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/serial.h"
#include "core/fds.h"
#include "faults/degraded_controller.h"
#include "faults/fault_model.h"
#include "test_support.h"

namespace avcp {
namespace {

using core::testing::make_chain_game;

/// A misbehaving inner controller: emits ratios far outside [0, 1]. The
/// wrapper must still satisfy the plant's invariants.
class HostileController final : public core::Controller {
 public:
  std::vector<double> next_x(const core::GameState& state,
                             const std::vector<double>&) override {
    std::vector<double> x(state.num_regions());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = (i % 2 == 0) ? 40.0 : -25.0;
    }
    return x;
  }
};

/// Records the per-region report rows the inner controller was handed and
/// returns x_prev unchanged (an identity controller).
class RecordingController final : public core::Controller {
 public:
  std::vector<double> next_x(const core::GameState& state,
                             const std::vector<double>& x_prev) override {
    seen.push_back(state.p);
    return x_prev;
  }

  std::vector<std::vector<std::vector<double>>> seen;
};

core::GameState state_with_p0(const core::MultiRegionGame& game, double p0) {
  auto state = game.uniform_state();
  const std::size_t k = game.num_decisions();
  for (auto& row : state.p) {
    row.assign(k, (1.0 - p0) / static_cast<double>(k - 1));
    row[0] = p0;
  }
  return state;
}

faults::FaultModel inert_model() { return faults::FaultModel({}); }

TEST(DegradedControllerTest, PassThroughWithFreshReports) {
  const auto game = make_chain_game(2);
  core::FixedRatioController inner(0.5);
  const auto model = inert_model();
  faults::DegradedOptions options;
  options.max_step = 0.05;
  faults::DegradedController wrapper(inner, model, options);

  const auto state = state_with_p0(game, 0.4);
  std::vector<double> x = {0.48, 0.52};
  x = wrapper.next_x(state, x);
  // Inner's target 0.5 is within one step of both ratios: exact delegation.
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_FALSE(wrapper.degraded(1));
  EXPECT_EQ(wrapper.report_age(0), 0u);
  EXPECT_EQ(wrapper.round(), 1u);
  EXPECT_EQ(wrapper.counters().reports_lost, 0u);
}

TEST(DegradedControllerTest, ClampsHostileInnerToStepAndRange) {
  const auto game = make_chain_game(2);
  HostileController inner;
  const auto model = inert_model();
  faults::DegradedOptions options;
  options.max_step = 0.1;
  faults::DegradedController wrapper(inner, model, options);

  const auto state = state_with_p0(game, 0.4);
  std::vector<double> x = {0.5, 0.05};
  const auto next = wrapper.next_x(state, x);
  EXPECT_DOUBLE_EQ(next[0], 0.6);   // +40 clamped to +max_step
  EXPECT_DOUBLE_EQ(next[1], 0.0);   // -25 clamped to -max_step, then [0, 1]
}

TEST(DegradedControllerTest, HoldUnderTotalReportLossNeverViolatesLambda) {
  const auto game = make_chain_game(3);
  faults::FaultParams fp;
  fp.report_loss_rate = 1.0;
  fp.seed = 21;
  const faults::FaultModel model(fp);

  HostileController inner;
  faults::DegradedOptions options;
  options.max_step = 0.07;
  options.staleness_budget = 0;
  faults::DegradedController wrapper(inner, model, options);

  std::vector<double> x = {0.3, 0.6, 0.9};
  const auto state = state_with_p0(game, 0.5);
  for (std::size_t t = 0; t < 50; ++t) {
    const auto prev = x;
    x = wrapper.next_x(state, x);
    ASSERT_EQ(x.size(), prev.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(x[i], 0.0);
      EXPECT_LE(x[i], 1.0);
      EXPECT_LE(std::abs(x[i] - prev[i]), options.max_step + 1e-12);
      // Every report lost: a blind region holds, so the ratio never moves.
      EXPECT_DOUBLE_EQ(x[i], prev[i]);
      EXPECT_TRUE(wrapper.degraded(i));
      EXPECT_EQ(wrapper.report_age(i), faults::DegradedController::kNever);
    }
  }
  EXPECT_EQ(wrapper.counters().reports_lost, 50u * game.num_regions());
}

TEST(DegradedControllerTest, StalenessBudgetThenResync) {
  const auto game = make_chain_game(2);
  // Region 0's edge servers are down for rounds 1-3; region 1 stays up.
  faults::FaultParams fp;
  fp.outages.push_back(
      faults::OutageWindow{/*region=*/0, /*first_round=*/1, /*duration=*/3});
  const faults::FaultModel model(fp);

  RecordingController inner;
  faults::DegradedOptions options;
  options.staleness_budget = 1;
  options.max_step = 0.2;
  faults::DegradedController wrapper(inner, model, options);

  const auto fresh_a = state_with_p0(game, 0.3);
  const auto fresh_b = state_with_p0(game, 0.8);
  std::vector<double> x = {0.5, 0.5};

  // Round 0: both fresh.
  x = wrapper.next_x(fresh_a, x);
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_EQ(wrapper.report_age(0), 0u);

  // Round 1: region 0 down, age 1 <= budget -> stale-but-usable.
  x = wrapper.next_x(fresh_b, x);
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_EQ(wrapper.report_age(0), 1u);
  // The inner controller saw region 0's *held* round-0 report, and region
  // 1's fresh one.
  EXPECT_EQ(inner.seen.back()[0], fresh_a.p[0]);
  EXPECT_EQ(inner.seen.back()[1], fresh_b.p[1]);

  // Rounds 2-3: past the budget -> blind, ratio held.
  const double held = x[0];
  x = wrapper.next_x(fresh_b, x);
  EXPECT_TRUE(wrapper.degraded(0));
  EXPECT_FALSE(wrapper.degraded(1));
  EXPECT_DOUBLE_EQ(x[0], held);
  x = wrapper.next_x(fresh_b, x);
  EXPECT_TRUE(wrapper.degraded(0));
  EXPECT_EQ(wrapper.report_age(0), 3u);

  // Round 4: reports resume -> re-synchronized.
  x = wrapper.next_x(fresh_b, x);
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_EQ(wrapper.report_age(0), 0u);
  EXPECT_EQ(inner.seen.back()[0], fresh_b.p[0]);
  // Region 0 lost its report in rounds 1, 2, 3.
  EXPECT_EQ(wrapper.counters().reports_lost, 3u);
}

TEST(DegradedControllerTest, WrappedFdsMatchesRawFdsWhenFaultFree) {
  const auto game = make_chain_game(3, /*beta_lo=*/4.0, /*beta_hi=*/4.0);
  core::DesiredFields fields(game.num_regions(), game.num_decisions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    fields.set_target(i, 0, Interval{0.7, 1.0});
  }
  core::FdsOptions fds_options;
  fds_options.max_step = 0.1;
  core::FdsController raw(game, fields, fds_options);
  core::FdsController inner(game, fields, fds_options);
  const auto model = inert_model();
  faults::DegradedOptions options;
  options.max_step = fds_options.max_step;
  faults::DegradedController wrapped(inner, model, options);

  std::vector<double> x_raw(game.num_regions(), 0.5);
  std::vector<double> x_wrapped = x_raw;
  for (double p0 : {0.2, 0.35, 0.5, 0.62, 0.7}) {
    const auto state = state_with_p0(game, p0);
    x_raw = raw.next_x(state, x_raw);
    x_wrapped = wrapped.next_x(state, x_wrapped);
    ASSERT_EQ(x_raw, x_wrapped);
  }
}

/// Emits NaN for even regions and +inf for odd ones: a numerically broken
/// inner controller whose output must never reach the plant.
class NanController final : public core::Controller {
 public:
  std::vector<double> next_x(const core::GameState& state,
                             const std::vector<double>&) override {
    std::vector<double> x(state.num_regions());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = (i % 2 == 0) ? std::numeric_limits<double>::quiet_NaN()
                          : std::numeric_limits<double>::infinity();
    }
    return x;
  }
};

TEST(DegradedControllerTest, NonFiniteInnerRatiosHoldThePreviousRatio) {
  const auto game = make_chain_game(2);
  NanController inner;
  const auto model = inert_model();  // reports fresh: inner output is used
  faults::DegradedOptions options;
  options.max_step = 0.1;
  faults::DegradedController wrapper(inner, model, options);

  const auto state = state_with_p0(game, 0.4);
  std::vector<double> x = {0.3, 0.7};
  for (int t = 0; t < 5; ++t) {
    x = wrapper.next_x(state, x);
    ASSERT_TRUE(std::isfinite(x[0]));
    ASSERT_TRUE(std::isfinite(x[1]));
    EXPECT_DOUBLE_EQ(x[0], 0.3);  // NaN target -> no update
    EXPECT_DOUBLE_EQ(x[1], 0.7);  // inf target -> no update
  }
}

TEST(DegradedControllerTest, ZeroStalenessBudgetDegradesOnFirstMiss) {
  const auto game = make_chain_game(1);
  // Region 0 down exactly in round 1.
  faults::FaultParams fp;
  fp.outages.push_back(
      faults::OutageWindow{/*region=*/0, /*first_round=*/1, /*duration=*/1});
  const faults::FaultModel model(fp);

  core::FixedRatioController inner(0.9);
  faults::DegradedOptions options;
  options.staleness_budget = 0;  // stale == blind: no grace round at all
  options.max_step = 0.05;
  faults::DegradedController wrapper(inner, model, options);

  const auto state = state_with_p0(game, 0.5);
  std::vector<double> x = {0.5};
  x = wrapper.next_x(state, x);  // round 0: fresh
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_DOUBLE_EQ(x[0], 0.55);
  x = wrapper.next_x(state, x);  // round 1: one miss -> immediately blind
  EXPECT_TRUE(wrapper.degraded(0));
  EXPECT_EQ(wrapper.report_age(0), 1u);
  EXPECT_DOUBLE_EQ(x[0], 0.55);  // blind: held
  x = wrapper.next_x(state, x);  // round 2: resumed
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_DOUBLE_EQ(x[0], 0.6);
}

TEST(DegradedControllerTest, BlindStartHoldsUntilTheFirstReportArrives) {
  const auto game = make_chain_game(2);
  // Region 0 never reported yet: down for rounds 0-2; region 1 always up.
  faults::FaultParams fp;
  fp.outages.push_back(
      faults::OutageWindow{/*region=*/0, /*first_round=*/0, /*duration=*/3});
  const faults::FaultModel model(fp);

  RecordingController inner;
  faults::DegradedOptions options;
  options.staleness_budget = 10;  // generous budget must not excuse kNever
  faults::DegradedController wrapper(inner, model, options);

  const auto fresh = state_with_p0(game, 0.8);
  std::vector<double> x = {0.4, 0.6};
  const std::size_t k = game.num_decisions();
  for (std::size_t t = 0; t < 3; ++t) {
    x = wrapper.next_x(fresh, x);
    // Never-reported region: blind regardless of the budget, ratio held,
    // and the inner controller sees the uniform prior, not garbage.
    EXPECT_TRUE(wrapper.degraded(0));
    EXPECT_EQ(wrapper.report_age(0), faults::DegradedController::kNever);
    EXPECT_DOUBLE_EQ(x[0], 0.4);
    EXPECT_FALSE(wrapper.degraded(1));
    for (core::DecisionId d = 0; d < k; ++d) {
      EXPECT_DOUBLE_EQ(inner.seen.back()[0][d],
                       1.0 / static_cast<double>(k));
    }
    EXPECT_EQ(inner.seen.back()[1], fresh.p[1]);
  }
  // First real report flips the region to fresh.
  x = wrapper.next_x(fresh, x);
  EXPECT_FALSE(wrapper.degraded(0));
  EXPECT_EQ(wrapper.report_age(0), 0u);
  EXPECT_EQ(inner.seen.back()[0], fresh.p[0]);
}

TEST(DegradedControllerTest, RejectedSnapshotLeavesWrapperUntouched) {
  const auto game = make_chain_game(2);
  faults::FaultParams fp;
  fp.report_loss_rate = 0.4;
  fp.seed = 5;
  const faults::FaultModel model(fp);
  core::FixedRatioController inner(0.5);
  std::vector<double> x = {0.5, 0.5};

  faults::DegradedController source(inner, model, {});
  for (std::size_t t = 0; t < 6; ++t) {
    x = source.next_x(state_with_p0(game, 0.3), x);
  }
  Serializer snapshot;
  source.save_state(snapshot);
  const std::span<const std::byte> bytes(snapshot.bytes());

  // Misshapen: three ages for two regions.
  Serializer misshapen;
  misshapen.put_u64(9);
  state_with_p0(game, 0.6).save_state(misshapen);
  put_size_vec(misshapen, std::vector<std::size_t>{0, 1, 2});
  put_u8_vec(misshapen, std::vector<std::uint8_t>{0, 0});
  faults::FaultCounters{}.save_state(misshapen);

  faults::DegradedController target(inner, model, {});
  x = target.next_x(state_with_p0(game, 0.7), x);
  Serializer before;
  target.save_state(before);
  // Truncated inside the loss counters (the last read), and misshapen.
  for (const std::span<const std::byte> snap :
       {bytes.first(bytes.size() - 16),
        std::span<const std::byte>(misshapen.bytes())}) {
    Deserializer d(snap);
    EXPECT_THROW(target.load_state(d), SerialError);
    Serializer after;
    target.save_state(after);
    EXPECT_TRUE(before.bytes() == after.bytes());
  }
}

TEST(DegradedControllerTest, ResetForgetsHeldReports) {
  const auto game = make_chain_game(2);
  core::FixedRatioController inner(0.5);
  const auto model = inert_model();
  faults::DegradedController wrapper(inner, model, {});

  std::vector<double> x = {0.5, 0.5};
  wrapper.next_x(state_with_p0(game, 0.4), x);
  EXPECT_EQ(wrapper.round(), 1u);
  wrapper.reset();
  EXPECT_EQ(wrapper.round(), 0u);
  wrapper.next_x(state_with_p0(game, 0.4), x);
  EXPECT_EQ(wrapper.round(), 1u);
  EXPECT_EQ(wrapper.report_age(0), 0u);
}

}  // namespace
}  // namespace avcp
