// Gate for the class-aggregated data-plane kernel (DataPlaneMode::
// kClassAggregated): it must agree with the pairwise-exact kernel exactly
// wherever no randomness is involved (x = 0, x = 1, uploads, privacy,
// exposure, access control) and in distribution everywhere else (seeded
// multi-seed averages of utility and deliveries within a tolerance band).
#include "perception/data_plane.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "perception/fleet_soa.h"

namespace avcp::perception {
namespace {

using core::AccessRule;
using core::DecisionLattice;

DataUniverse make_universe(std::size_t items_per_sensor = 2) {
  DataUniverse universe(3);
  for (std::size_t s = 0; s < 3; ++s) {
    const double privacy = s == 0 ? 1.0 : (s == 1 ? 0.5 : 0.1);
    for (std::size_t i = 0; i < items_per_sensor; ++i) {
      universe.add_item(s, 1.0, privacy);
    }
  }
  return universe;
}

/// Appends an honest vehicle: it claims its decision and is not revoked.
void add_vehicle(FleetSoA& fleet, core::DecisionId decision,
                 const ItemSet& collected, const ItemSet& desired) {
  fleet.add(decision, kClaimFollowsDecision, false, collected, desired);
}

FleetSoA random_fleet(const DataUniverse& universe, std::size_t n, Rng& rng) {
  FleetSoA fleet;
  for (std::size_t v = 0; v < n; ++v) {
    const auto decision = static_cast<core::DecisionId>(rng.uniform_int(0, 7));
    ItemSet collected;
    ItemSet desired;
    for (ItemId id = 0; id < universe.size(); ++id) {
      if (rng.bernoulli(0.4)) collected.push_back(id);
      if (rng.bernoulli(0.3)) desired.push_back(id);
    }
    if (desired.empty()) desired.push_back(0);
    add_vehicle(fleet, decision, collected, desired);
  }
  return fleet;
}

RoundOutcome run(EdgeServerDataPlane& plane, const FleetSoA& fleet, double x,
                 DataPlaneMode mode, const CellFaultMask& mask = {},
                 const ItemSet& server_items = {}) {
  RoundOutcome out;
  plane.run_round_into(fleet.view(), x, mask, server_items, mode, out);
  return out;
}

RoundOutcome exact_round(EdgeServerDataPlane& plane, const FleetSoA& fleet,
                         double x) {
  return run(plane, fleet, x, DataPlaneMode::kPairwiseExact);
}

RoundOutcome aggregated_round(EdgeServerDataPlane& plane,
                              const FleetSoA& fleet, double x,
                              const CellFaultMask& mask = {},
                              const ItemSet& server_items = {}) {
  return run(plane, fleet, x, DataPlaneMode::kClassAggregated, mask,
             server_items);
}

EdgeServerDataPlane::DirectionalOutcome directional(
    EdgeServerDataPlane& plane, const FleetSoA& senders,
    const FleetSoA& receivers, double x, DataPlaneMode mode) {
  EdgeServerDataPlane::DirectionalOutcome out;
  plane.run_directional_into(senders.view(), receivers.view(), x, mode, out);
  return out;
}

// At x = 0 and x = 1 neither kernel consumes randomness, and the aggregated
// construction is exact (not just in-distribution): outcomes must be equal.
TEST(AggregatedKernel, DeterministicEndpointsMatchExactKernel) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe(4);
  Rng rng(101);
  const auto fleet = random_fleet(universe, 50, rng);
  for (const double x : {0.0, 1.0}) {
    EdgeServerDataPlane exact(lattice, universe, AccessRule::kSubsetOrEqual, 3);
    EdgeServerDataPlane agg(lattice, universe, AccessRule::kSubsetOrEqual, 3);
    const auto a = exact_round(exact, fleet, x);
    const auto b = aggregated_round(agg, fleet, x);
    EXPECT_EQ(a.utility, b.utility) << "x = " << x;
    EXPECT_EQ(a.privacy, b.privacy) << "x = " << x;
    EXPECT_EQ(a.deliveries, b.deliveries) << "x = " << x;
    EXPECT_EQ(a.exposed_items, b.exposed_items) << "x = " << x;
    EXPECT_EQ(a.exposed_privacy, b.exposed_privacy) << "x = " << x;
  }
}

// The upload phase is shared verbatim: privacy and exposure are equal at
// every sharing ratio, not just the endpoints.
TEST(AggregatedKernel, UploadPhaseIsSharedExactly) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe(3);
  Rng rng(55);
  const auto fleet = random_fleet(universe, 40, rng);
  EdgeServerDataPlane exact(lattice, universe, AccessRule::kSubsetOrEqual, 5);
  EdgeServerDataPlane agg(lattice, universe, AccessRule::kSubsetOrEqual, 6);
  const auto a = exact_round(exact, fleet, 0.37);
  const auto b = aggregated_round(agg, fleet, 0.37);
  EXPECT_EQ(a.privacy, b.privacy);
  EXPECT_EQ(a.exposed_items, b.exposed_items);
  EXPECT_EQ(a.exposed_privacy, b.exposed_privacy);
}

// Access control: at x = 1 the aggregated kernel satisfies a receiver iff
// the lattice admits the sender's class — the same exhaustive matrix the
// exact kernel is tested against.
TEST(AggregatedKernel, AccessMatrixAtFullRatio) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  for (core::DecisionId receiver = 0; receiver < 8; ++receiver) {
    for (core::DecisionId sender = 0; sender < 8; ++sender) {
      EdgeServerDataPlane plane(lattice, universe);
      const ItemSet sender_items = {0, 2, 4};
      const ItemSet upload = plane.shared_items(sender, sender_items);
      if (upload.empty()) continue;
      FleetSoA fleet;
      add_vehicle(fleet, receiver, {}, upload);
      add_vehicle(fleet, sender, sender_items, {1});
      const auto outcome = aggregated_round(plane, fleet, 1.0);
      const double expected = lattice.preceq(receiver, sender) ? 1.0 : 0.0;
      EXPECT_DOUBLE_EQ(outcome.utility[0], expected)
          << "receiver " << lattice.label(receiver) << " sender "
          << lattice.label(sender);
    }
  }
}

// Distributional equivalence at an interior ratio: over >= 20 seeds, the
// seed-averaged mean utility and delivery counts of the two kernels agree
// within a tolerance band (per-item marginals are identical by
// construction; only higher moments differ).
TEST(AggregatedKernel, DistributionallyEquivalentAcrossSeeds) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe(5);
  constexpr std::size_t kSeeds = 24;
  constexpr std::size_t kFleet = 40;
  constexpr double kRatio = 0.5;
  double exact_utility = 0.0;
  double agg_utility = 0.0;
  double exact_deliveries = 0.0;
  double agg_deliveries = 0.0;
  for (std::size_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(1000 + seed);
    const auto fleet = random_fleet(universe, kFleet, rng);
    EdgeServerDataPlane exact(lattice, universe, AccessRule::kSubsetOrEqual,
                              seed);
    EdgeServerDataPlane agg(lattice, universe, AccessRule::kSubsetOrEqual,
                            seed * 31);
    const auto a = exact_round(exact, fleet, kRatio);
    const auto b = aggregated_round(agg, fleet, kRatio);
    exact_utility += a.mean_utility();
    agg_utility += b.mean_utility();
    exact_deliveries += static_cast<double>(a.deliveries);
    agg_deliveries += static_cast<double>(b.deliveries);
    // Privacy is shared-phase: exactly equal on every seed.
    ASSERT_EQ(a.privacy, b.privacy) << "seed " << seed;
  }
  exact_utility /= kSeeds;
  agg_utility /= kSeeds;
  exact_deliveries /= kSeeds;
  agg_deliveries /= kSeeds;
  EXPECT_NEAR(agg_utility, exact_utility, 0.02);
  EXPECT_NEAR(agg_deliveries / exact_deliveries, 1.0, 0.05);
}

// The aggregated kernel is itself reproducible: same seed, same outcome.
TEST(AggregatedKernel, SeededRunsAreReproducible) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe(3);
  Rng rng(7);
  const auto fleet = random_fleet(universe, 30, rng);
  EdgeServerDataPlane p1(lattice, universe, AccessRule::kSubsetOrEqual, 42);
  EdgeServerDataPlane p2(lattice, universe, AccessRule::kSubsetOrEqual, 42);
  const auto a = aggregated_round(p1, fleet, 0.6);
  const auto b = aggregated_round(p2, fleet, 0.6);
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

TEST(AggregatedKernel, ServerItemsReachEveryoneUnconditionally) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA fleet;
  add_vehicle(fleet, 7, {}, {0, 4});
  const auto outcome =
      aggregated_round(plane, fleet, 0.0, CellFaultMask{}, ItemSet{0, 4});
  EXPECT_DOUBLE_EQ(outcome.utility[0], 1.0);
  EXPECT_DOUBLE_EQ(outcome.privacy[0], 0.0);
}

TEST(AggregatedKernel, RevokedReceiverServedNothing) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA fleet;
  fleet.add(0, kClaimFollowsDecision, /*revoked=*/true, ItemSet{2}, ItemSet{0});
  add_vehicle(fleet, 0, {0}, {2});
  const auto outcome = aggregated_round(plane, fleet, 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 0.0);  // quarantined: no deliveries
  EXPECT_DOUBLE_EQ(outcome.utility[1], 1.0);  // its upload still circulates
}

TEST(AggregatedKernel, UploadLossShrinksThePool) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA fleet;
  add_vehicle(fleet, 0, {2}, {0});
  add_vehicle(fleet, 0, {0}, {2});
  CellFaultMask mask;
  mask.upload_lost = {0, 1};  // vehicle 1's upload never arrives
  const auto outcome = aggregated_round(plane, fleet, 1.0, mask);
  EXPECT_EQ(outcome.uploads_lost, 1u);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 0.0);  // its desired item was lost
  EXPECT_DOUBLE_EQ(outcome.utility[1], 1.0);
  EXPECT_DOUBLE_EQ(outcome.privacy[1], 0.0);  // lost upload costs no privacy
}

TEST(AggregatedKernel, RejectsPerPairDeliveryFaults) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA fleet;
  add_vehicle(fleet, 0, {0}, {2});
  CellFaultMask mask;
  mask.delivery_lost = {0};
  EXPECT_THROW(aggregated_round(plane, fleet, 0.5, mask), ContractViolation);
}

TEST(AggregatedKernel, FreeRiderClaimGovernsAccess) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  // True decision P8 (share nothing) but claims P1: the claim earns access
  // to everything — in the aggregated kernel exactly as in the exact one.
  FleetSoA fleet;
  fleet.add(7, /*claim=*/0, false, ItemSet{}, ItemSet{0});  // the liar
  add_vehicle(fleet, 0, {0}, {2});
  const auto outcome = aggregated_round(plane, fleet, 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 1.0);
  EXPECT_DOUBLE_EQ(outcome.privacy[0], 0.0);  // uploaded nothing
}

// Directional: deterministic endpoints equal the exact kernel; interior
// ratios agree in seed-averaged distribution.
TEST(AggregatedKernel, DirectionalEndpointsMatchExact) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe(4);
  Rng rng(303);
  const auto senders = random_fleet(universe, 25, rng);
  const auto receivers = random_fleet(universe, 25, rng);
  for (const double x : {0.0, 1.0}) {
    EdgeServerDataPlane exact(lattice, universe, AccessRule::kSubsetOrEqual, 2);
    EdgeServerDataPlane agg(lattice, universe, AccessRule::kSubsetOrEqual, 2);
    const auto a = directional(exact, senders, receivers, x,
                               DataPlaneMode::kPairwiseExact);
    const auto b = directional(agg, senders, receivers, x,
                               DataPlaneMode::kClassAggregated);
    EXPECT_EQ(a.marginal_utility, b.marginal_utility) << "x = " << x;
    EXPECT_EQ(a.deliveries, b.deliveries) << "x = " << x;
  }
}

TEST(AggregatedKernel, DirectionalDistributionallyEquivalent) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe(5);
  constexpr std::size_t kSeeds = 20;
  double exact_marginal = 0.0;
  double agg_marginal = 0.0;
  for (std::size_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(500 + seed);
    const auto senders = random_fleet(universe, 30, rng);
    const auto receivers = random_fleet(universe, 30, rng);
    EdgeServerDataPlane exact(lattice, universe, AccessRule::kSubsetOrEqual,
                              seed);
    EdgeServerDataPlane agg(lattice, universe, AccessRule::kSubsetOrEqual,
                            seed * 17);
    const auto a = directional(exact, senders, receivers, 0.5,
                               DataPlaneMode::kPairwiseExact);
    const auto b = directional(agg, senders, receivers, 0.5,
                               DataPlaneMode::kClassAggregated);
    for (const double u : a.marginal_utility) exact_marginal += u;
    for (const double u : b.marginal_utility) agg_marginal += u;
  }
  EXPECT_NEAR(agg_marginal / exact_marginal, 1.0, 0.05);
}

}  // namespace
}  // namespace avcp::perception
