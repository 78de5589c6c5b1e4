#include "perception/data_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ios>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/sensor_model.h"
#include "perception/fleet_soa.h"
#include "test_support.h"

namespace avcp::perception {
namespace {

using core::AccessRule;
using core::DecisionLattice;
using core::testing::fnv1a_word;
using core::testing::kFnv1aBasis;
using DirectionalOutcome = EdgeServerDataPlane::DirectionalOutcome;

/// Universe with 2 items per sensor: camera {0,1}, lidar {2,3}, radar {4,5}.
DataUniverse make_universe() {
  DataUniverse universe(3);
  for (std::size_t s = 0; s < 3; ++s) {
    const double privacy = s == 0 ? 1.0 : (s == 1 ? 0.5 : 0.1);
    universe.add_item(s, 1.0, privacy);
    universe.add_item(s, 1.0, privacy);
  }
  return universe;
}

/// Appends an honest vehicle: it claims its decision and is not revoked.
void add_vehicle(FleetSoA& fleet, core::DecisionId decision,
                 const ItemSet& collected, const ItemSet& desired) {
  fleet.add(decision, kClaimFollowsDecision, false, collected, desired);
}

/// One clean exact-kernel round.
RoundOutcome exact_round(EdgeServerDataPlane& plane, const FleetSoA& fleet,
                         double x, const ItemSet& server_items = {}) {
  RoundOutcome out;
  plane.run_round_into(fleet.view(), x, CellFaultMask{}, server_items,
                       DataPlaneMode::kPairwiseExact, out);
  return out;
}

/// One exact-kernel directional round.
DirectionalOutcome exact_directional(EdgeServerDataPlane& plane,
                                     const FleetSoA& senders,
                                     const FleetSoA& receivers, double x) {
  DirectionalOutcome out;
  plane.run_directional_into(senders.view(), receivers.view(), x,
                             DataPlaneMode::kPairwiseExact, out);
  return out;
}

TEST(DataPlane, SharedItemsFilteredByDecision) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  const EdgeServerDataPlane plane(lattice, universe);

  // Decision P4 = {lidar, radar} (index 3): camera items are withheld.
  const ItemSet shared = plane.shared_items(3, ItemSet{0, 2, 4});
  EXPECT_EQ(shared, (ItemSet{2, 4}));
}

TEST(DataPlane, ShareNothingDecisionUploadsNothing) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  const EdgeServerDataPlane plane(lattice, universe);
  EXPECT_TRUE(plane.shared_items(7, ItemSet{0, 1, 2, 3, 4, 5}).empty());
}

TEST(DataPlane, ZeroRatioDeliversNothing) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  FleetSoA vehicles;
  add_vehicle(vehicles, 0, {0, 2}, {4});  // wants radar item 4
  add_vehicle(vehicles, 0, {4}, {0});
  const auto outcome = exact_round(plane, vehicles, 0.0);
  EXPECT_EQ(outcome.deliveries, 0u);
  // Utilities reflect own data only: neither vehicle holds what it wants.
  EXPECT_DOUBLE_EQ(outcome.utility[0], 0.0);
  EXPECT_DOUBLE_EQ(outcome.utility[1], 0.0);
}

TEST(DataPlane, FullRatioFullSharingSatisfiesEveryone) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  FleetSoA vehicles;
  add_vehicle(vehicles, 0, {0, 2}, {4});
  add_vehicle(vehicles, 0, {4}, {0, 2});
  const auto outcome = exact_round(plane, vehicles, 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[1], 1.0);
  EXPECT_GT(outcome.deliveries, 0u);
}

TEST(DataPlane, LatticeAccessControlEnforced) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  // Vehicle 0 shares only radar (P7, index 6); vehicle 1 shares everything
  // (P1) and holds a camera item vehicle 0 desires. P7 does not precede P1
  // (P^1 is not a subset of P^7), so vehicle 0 must NOT receive it even at
  // ratio 1.
  FleetSoA vehicles;
  add_vehicle(vehicles, 6, {4}, {0});
  add_vehicle(vehicles, 0, {0}, {4});
  const auto outcome = exact_round(plane, vehicles, 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 0.0);  // denied the camera item
  EXPECT_DOUBLE_EQ(outcome.utility[1], 1.0);  // P1 reads P7's radar upload
}

TEST(DataPlane, PredecessorReceivesSuccessorData) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  // P2 {cam,lid} (index 1) precedes P6 {lid} (index 5): the P2 vehicle may
  // read the P6 upload, not vice versa.
  FleetSoA vehicles;
  add_vehicle(vehicles, 1, {0}, {2});  // P2, wants lidar item 2
  add_vehicle(vehicles, 5, {2}, {0});  // P6, wants camera item 0
  const auto outcome = exact_round(plane, vehicles, 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[1], 0.0);
}

TEST(DataPlane, StrictRuleExcludesEqualDecisions) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe, AccessRule::kStrictSubset);

  FleetSoA vehicles;
  add_vehicle(vehicles, 0, {0}, {4});
  add_vehicle(vehicles, 0, {4}, {0});
  const auto outcome = exact_round(plane, vehicles, 1.0);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 0.0);
  EXPECT_DOUBLE_EQ(outcome.utility[1], 0.0);
}

TEST(DataPlane, PrivacyCostTracksDecision) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  const ItemSet everything = {0, 1, 2, 3, 4, 5};
  FleetSoA vehicles;
  add_vehicle(vehicles, 0, everything, {0});  // shares all
  add_vehicle(vehicles, 6, everything, {0});  // radar only
  add_vehicle(vehicles, 7, everything, {0});  // nothing
  const auto outcome = exact_round(plane, vehicles, 0.5);
  EXPECT_GT(outcome.privacy[0], outcome.privacy[1]);
  EXPECT_GT(outcome.privacy[1], outcome.privacy[2]);
  EXPECT_DOUBLE_EQ(outcome.privacy[2], 0.0);
  EXPECT_DOUBLE_EQ(outcome.privacy[0], 1.0);  // entire universe exposed
}

TEST(DataPlane, EavesdropperSeesUnionOfUploads) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  FleetSoA vehicles;
  add_vehicle(vehicles, 4, {0, 2, 4}, {0});  // P5 {cam}: uploads item 0 only
  add_vehicle(vehicles, 6, {4, 5}, {0});     // P7 {rad}: uploads 4, 5
  add_vehicle(vehicles, 6, {4}, {0});        // duplicate radar item 4
  const auto outcome = exact_round(plane, vehicles, 1.0);
  EXPECT_EQ(outcome.exposed_items, 3u);  // {0, 4, 5}
  EXPECT_GT(outcome.exposed_privacy, 0.0);
}

TEST(DataPlane, IntermediateRatioDeliversFractionally) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual, 7);

  // Many identical receiver/sender pairs; at x = 0.3 roughly 30% of the
  // pairwise transfers happen.
  FleetSoA vehicles;
  for (int i = 0; i < 300; ++i) {
    add_vehicle(vehicles, 0, {0}, {4});
    add_vehicle(vehicles, 0, {4}, {0});
  }
  const auto outcome = exact_round(plane, vehicles, 0.3);
  double satisfied = 0.0;
  for (const double u : outcome.utility) satisfied += u;
  // Each vehicle has ~299 potential donors of its desired item; with x=0.3
  // the chance of receiving none is (0.7)^299 ~ 0: essentially everyone is
  // satisfied. Use a weaker structural check instead: deliveries happened
  // but far fewer than the x=1 maximum.
  EdgeServerDataPlane full_plane(lattice, universe, AccessRule::kSubsetOrEqual,
                                 8);
  const auto full = exact_round(full_plane, vehicles, 1.0);
  EXPECT_GT(outcome.deliveries, 0u);
  EXPECT_LT(outcome.deliveries, full.deliveries);
  EXPECT_NEAR(static_cast<double>(outcome.deliveries) /
                  static_cast<double>(full.deliveries),
              0.3, 0.05);
  EXPECT_GT(satisfied, 590.0);
}

// Exhaustive access-control matrix: for every ordered decision pair
// (receiver, sender), the receiver obtains the sender's upload at x = 1
// exactly when receiver ⪯ sender in the lattice.
class AccessMatrixSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AccessMatrixSweep, DeliveryIffLatticePrecedes) {
  const auto [receiver_raw, sender_raw] = GetParam();
  const auto receiver = static_cast<core::DecisionId>(receiver_raw);
  const auto sender = static_cast<core::DecisionId>(sender_raw);
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  // Sender holds one item per sensor type; receiver desires exactly the
  // items the sender would upload under its decision.
  const ItemSet sender_items = {0, 2, 4};
  const ItemSet upload = plane.shared_items(sender, sender_items);
  if (upload.empty()) {
    // P8 sender: nothing to test beyond "no deliveries".
    FleetSoA vehicles;
    add_vehicle(vehicles, receiver, {}, {1});
    add_vehicle(vehicles, sender, sender_items, {0});
    EXPECT_EQ(exact_round(plane, vehicles, 1.0).deliveries, 0u);
    return;
  }
  FleetSoA vehicles;
  add_vehicle(vehicles, receiver, {}, upload);
  add_vehicle(vehicles, sender, sender_items, {0});
  const auto outcome = exact_round(plane, vehicles, 1.0);
  if (lattice.preceq(receiver, sender)) {
    EXPECT_DOUBLE_EQ(outcome.utility[0], 1.0)
        << "receiver " << lattice.label(receiver) << " should read "
        << lattice.label(sender);
  } else {
    EXPECT_DOUBLE_EQ(outcome.utility[0], 0.0)
        << "receiver " << lattice.label(receiver) << " must not read "
        << lattice.label(sender);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, AccessMatrixSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 8)));

TEST(DataPlane, ServerItemsReachEveryoneUnconditionally) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  // Even a share-nothing vehicle at ratio 0 receives the server's own
  // perception (paper future work: infrastructure-assisted perception).
  FleetSoA vehicles;
  add_vehicle(vehicles, 7, {}, {0, 4});
  const ItemSet server_items = {0, 4};
  const auto outcome = exact_round(plane, vehicles, 0.0, server_items);
  EXPECT_DOUBLE_EQ(outcome.utility[0], 1.0);
  EXPECT_DOUBLE_EQ(outcome.privacy[0], 0.0);
}

TEST(DataPlane, ServerItemsNeverReduceUtility) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();

  FleetSoA vehicles;
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    const auto decision = static_cast<core::DecisionId>(rng.uniform_int(0, 7));
    ItemSet collected;
    ItemSet desired;
    for (ItemId id = 0; id < universe.size(); ++id) {
      if (rng.bernoulli(0.3)) collected.push_back(id);
      if (rng.bernoulli(0.4)) desired.push_back(id);
    }
    if (desired.empty()) desired.push_back(0);
    add_vehicle(vehicles, decision, collected, desired);
  }
  // Same RNG seed in both planes so the probabilistic deliveries match.
  EdgeServerDataPlane without(lattice, universe, AccessRule::kSubsetOrEqual, 9);
  EdgeServerDataPlane with(lattice, universe, AccessRule::kSubsetOrEqual, 9);
  const auto base = exact_round(without, vehicles, 0.5);
  const auto boosted = exact_round(with, vehicles, 0.5, {1, 3});
  for (std::size_t a = 0; a < vehicles.size(); ++a) {
    EXPECT_GE(boosted.utility[a], base.utility[a] - 1e-12) << "vehicle " << a;
    EXPECT_DOUBLE_EQ(boosted.privacy[a], base.privacy[a]);
  }
}

TEST(DataPlane, ServerItemsMustBeSorted) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA vehicles;
  add_vehicle(vehicles, 0, {0}, {0});
  EXPECT_THROW(exact_round(plane, vehicles, 0.5, ItemSet{3, 1}),
               ContractViolation);
}

// Both kernels merge desired sets as sorted-unique lists. An unsorted one
// would be merged wrongly: a receiver holding {0, 4} and desiring {4, 0}
// would score f = 0.5 where the true f is 1.0. So every kernel, in both
// round shapes, rejects it.
TEST(DataPlane, UnsortedDesiredSetIsRejectedByEveryKernel) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  FleetSoA holder;
  add_vehicle(holder, 0, {0, 4}, {4, 0});
  FleetSoA senders;
  add_vehicle(senders, 0, {0, 4}, {});
  FleetSoA receivers;
  add_vehicle(receivers, 0, {}, {4, 0});
  for (const DataPlaneMode mode :
       {DataPlaneMode::kPairwiseExact, DataPlaneMode::kClassAggregated}) {
    EdgeServerDataPlane plane(lattice, universe);
    RoundOutcome round;
    EXPECT_THROW(
        plane.run_round_into(holder.view(), 0.0, {}, {}, mode, round),
        ContractViolation)
        << "mode " << static_cast<int>(mode);
    DirectionalOutcome directional;
    EXPECT_THROW(plane.run_directional_into(senders.view(), receivers.view(),
                                            1.0, mode, directional),
                 ContractViolation)
        << "mode " << static_cast<int>(mode);
  }
}

// The receive side stamps collected sets without walking them in order, so
// their sorted-unique contract is checked where it is cheapest: in the
// upload phase for every vehicle of a round, upload-lost ones included, and
// per receiver on the directional shape. Every kernel rejects an unsorted
// collected set in each of those places.
TEST(DataPlane, UnsortedCollectedSetIsRejectedByEveryKernel) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  FleetSoA holder;
  add_vehicle(holder, 0, {4, 0}, {0, 4});
  FleetSoA lost;
  add_vehicle(lost, 0, {4, 0}, {0, 4});
  add_vehicle(lost, 0, {2}, {0});
  CellFaultMask lose_first;
  lose_first.upload_lost = {1, 0};
  FleetSoA senders;
  add_vehicle(senders, 0, {0, 4}, {});
  FleetSoA receivers;
  add_vehicle(receivers, 0, {4, 0}, {0, 4});
  for (const DataPlaneMode mode :
       {DataPlaneMode::kPairwiseExact, DataPlaneMode::kClassAggregated}) {
    EdgeServerDataPlane plane(lattice, universe);
    RoundOutcome round;
    EXPECT_THROW(
        plane.run_round_into(holder.view(), 0.5, {}, {}, mode, round),
        ContractViolation)
        << "uploaded, mode " << static_cast<int>(mode);
    EXPECT_THROW(
        plane.run_round_into(lost.view(), 0.5, lose_first, {}, mode, round),
        ContractViolation)
        << "upload lost, mode " << static_cast<int>(mode);
    DirectionalOutcome directional;
    EXPECT_THROW(plane.run_directional_into(senders.view(), receivers.view(),
                                            0.5, mode, directional),
                 ContractViolation)
        << "directional receiver, mode " << static_cast<int>(mode);
  }
}

// Every id that indexes a per-item stamp or table is checked against the
// universe, including the sets no utility walk reads: the server items, an
// upload-lost vehicle's collected set (it is still held, so it is stamped)
// and a directional receiver's collected set (un-stamped after delivery).
TEST(DataPlane, OutOfUniverseIdsAreRejectedByEveryKernel) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  const auto outside = static_cast<ItemId>(universe.size());
  FleetSoA holder;
  add_vehicle(holder, 0, {0}, {4});
  FleetSoA lost;
  add_vehicle(lost, 0, {0, outside}, {4});
  add_vehicle(lost, 0, {4}, {0});
  CellFaultMask lose_first;
  lose_first.upload_lost = {1, 0};
  FleetSoA senders;
  add_vehicle(senders, 0, {0, 4}, {});
  FleetSoA receivers;
  add_vehicle(receivers, 0, {1, outside}, {0, 4});
  for (const DataPlaneMode mode :
       {DataPlaneMode::kPairwiseExact, DataPlaneMode::kClassAggregated}) {
    EdgeServerDataPlane plane(lattice, universe);
    RoundOutcome round;
    EXPECT_THROW(plane.run_round_into(holder.view(), 0.5, {},
                                      ItemSet{4, outside}, mode, round),
                 ContractViolation)
        << "server items, mode " << static_cast<int>(mode);
    EXPECT_THROW(
        plane.run_round_into(lost.view(), 0.5, lose_first, {}, mode, round),
        ContractViolation)
        << "upload-lost collected set, mode " << static_cast<int>(mode);
    DirectionalOutcome directional;
    EXPECT_THROW(plane.run_directional_into(senders.view(), receivers.view(),
                                            0.5, mode, directional),
                 ContractViolation)
        << "directional receiver's collected set, mode "
        << static_cast<int>(mode);
  }
}

// The plane builds its per-item table once, from the universe it is given:
// a universe that gains items afterwards is refused at the next round
// instead of being served from a stale (or silently regrown) table.
TEST(DataPlane, UniverseGrownAfterConstructionIsRejected) {
  const DecisionLattice lattice(3);
  auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA fleet;
  add_vehicle(fleet, 0, {0}, {4});
  universe.add_item(2, 1.0, 0.1);
  for (const DataPlaneMode mode :
       {DataPlaneMode::kPairwiseExact, DataPlaneMode::kClassAggregated}) {
    RoundOutcome round;
    EXPECT_THROW(plane.run_round_into(fleet.view(), 0.5, {}, {}, mode, round),
                 ContractViolation)
        << "mode " << static_cast<int>(mode);
    DirectionalOutcome directional;
    EXPECT_THROW(plane.run_directional_into(fleet.view(), fleet.view(), 0.5,
                                            mode, directional),
                 ContractViolation)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(DataPlane, DirectionalRoundIsOneWay) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  // Sender (P1) holds camera item 0; receiver (P1) desires it.
  FleetSoA senders;
  add_vehicle(senders, 0, {0}, {4});
  FleetSoA receivers;
  add_vehicle(receivers, 0, {}, {0});
  const auto outcome = exact_directional(plane, senders, receivers, 1.0);
  ASSERT_EQ(outcome.marginal_utility.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.marginal_utility[0], 1.0);
  EXPECT_EQ(outcome.deliveries, 1u);
  // Nothing is reported for the senders: the API carries no reverse flow.
}

TEST(DataPlane, DirectionalRoundHonoursLattice) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);

  // Sender shares everything (P1); a radar-only receiver (P7) may not read
  // it even at ratio 1.
  FleetSoA senders;
  add_vehicle(senders, 0, {0, 2, 4}, {});
  FleetSoA receivers;
  add_vehicle(receivers, 6, {}, {0, 2, 4});
  const auto outcome = exact_directional(plane, senders, receivers, 1.0);
  EXPECT_DOUBLE_EQ(outcome.marginal_utility[0], 0.0);
  EXPECT_EQ(outcome.deliveries, 0u);
}

TEST(DataPlane, DirectionalRoundZeroRatioDeliversNothing) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  FleetSoA senders;
  add_vehicle(senders, 0, {0}, {});
  FleetSoA receivers;
  add_vehicle(receivers, 0, {}, {0});
  const auto outcome = exact_directional(plane, senders, receivers, 0.0);
  EXPECT_DOUBLE_EQ(outcome.marginal_utility[0], 0.0);
  EXPECT_EQ(outcome.deliveries, 0u);
}

TEST(DataPlane, DirectionalMarginalExcludesAlreadyHeld) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe);
  // Receiver already holds item 0; only item 2 counts toward the marginal.
  FleetSoA senders;
  add_vehicle(senders, 0, {0, 2}, {});
  FleetSoA receivers;
  add_vehicle(receivers, 0, {0}, {0, 2});
  const auto outcome = exact_directional(plane, senders, receivers, 1.0);
  // Items 0 and 2 have equal weight: marginal = f({2}) = 1/2.
  EXPECT_DOUBLE_EQ(outcome.marginal_utility[0], 0.5);
}

TEST(DataPlane, EmptyUploadFastPathPreservesDrawOrder) {
  // The draw-order contract (data_plane.h): one Bernoulli per readable
  // ordered pair, regardless of upload contents. Emptying one sender's
  // collected set (same decision, hence same readability) must leave every
  // other vehicle's outcome bit-identical — the empty-upload fast path may
  // skip work only AFTER the draw.
  const DecisionLattice lattice(3);
  const auto universe = make_universe();

  // r desires t's items only; s's upload is irrelevant to r's utility.
  FleetSoA fleet_with;
  add_vehicle(fleet_with, 0, {}, {2, 4});   // r
  add_vehicle(fleet_with, 0, {0, 1}, {0});  // s — emptied in the twin fleet
  add_vehicle(fleet_with, 0, {2, 4}, {5});  // t (desires an item nobody holds)
  FleetSoA fleet_without;
  add_vehicle(fleet_without, 0, {}, {2, 4});
  add_vehicle(fleet_without, 0, {}, {0});
  add_vehicle(fleet_without, 0, {2, 4}, {5});

  EdgeServerDataPlane p1(lattice, universe, AccessRule::kSubsetOrEqual, 77);
  EdgeServerDataPlane p2(lattice, universe, AccessRule::kSubsetOrEqual, 77);
  for (int round = 0; round < 50; ++round) {
    const auto a = exact_round(p1, fleet_with, 0.5);
    const auto b = exact_round(p2, fleet_without, 0.5);
    // r and t never touch s's items: their utilities must match exactly in
    // every round — any drift means the draw sequence shifted.
    ASSERT_DOUBLE_EQ(a.utility[0], b.utility[0]) << "round " << round;
    ASSERT_DOUBLE_EQ(a.utility[2], b.utility[2]) << "round " << round;
    ASSERT_LE(b.deliveries, a.deliveries);
  }
}

TEST(DataPlane, MeanHelpers) {
  RoundOutcome outcome;
  outcome.utility = {1.0, 0.0};
  outcome.privacy = {0.5, 0.1};
  EXPECT_DOUBLE_EQ(outcome.mean_utility(), 0.5);
  EXPECT_NEAR(outcome.mean_privacy(), 0.3, 1e-12);
}

// ---------------------------------------------------------------------------
// Output bits pinned across commits
// ---------------------------------------------------------------------------

DataUniverse make_synthetic_universe() {
  Rng rng(7);
  const double privacy[] = {1.0, 0.4, 0.1};
  return DataUniverse::synthetic(3, 10, privacy, rng);
}

ItemSet sample_items(Rng& rng, std::size_t omega, double fraction) {
  ItemSet out;
  for (ItemId id = 0; id < omega; ++id) {
    if (rng.bernoulli(fraction)) out.push_back(id);
  }
  return out;
}

/// A deliberately messy fleet: claims diverging from decisions, revoked
/// vehicles, empty collected and desired sets.
FleetSoA make_messy_fleet(std::size_t n, std::size_t k, std::size_t omega,
                          std::uint64_t seed) {
  Rng rng(seed);
  FleetSoA fleet;
  for (std::size_t v = 0; v < n; ++v) {
    const auto decision =
        static_cast<core::DecisionId>(rng.uniform_int(0, k - 1));
    core::DecisionId claim = kClaimFollowsDecision;
    if (rng.bernoulli(0.3)) {
      claim = static_cast<core::DecisionId>(rng.uniform_int(0, k - 1));
    }
    const bool revoked = rng.bernoulli(0.1);
    const ItemSet collected =
        sample_items(rng, omega, rng.bernoulli(0.1) ? 0.0 : 0.4);
    const ItemSet desired =
        sample_items(rng, omega, rng.bernoulli(0.1) ? 0.0 : 0.3);
    fleet.add(decision, claim, revoked, collected, desired);
  }
  return fleet;
}

std::uint64_t fold_outcome(std::uint64_t h, const RoundOutcome& out) {
  h = fnv1a_word(h, out.utility.size());
  for (const double u : out.utility) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(u));
  }
  h = fnv1a_word(h, out.privacy.size());
  for (const double c : out.privacy) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(c));
  }
  h = fnv1a_word(h, out.exposed_items);
  h = fnv1a_word(h, std::bit_cast<std::uint64_t>(out.exposed_privacy));
  h = fnv1a_word(h, out.deliveries);
  h = fnv1a_word(h, out.uploads_lost);
  return fnv1a_word(h, out.deliveries_lost);
}

std::uint64_t fold_outcome(std::uint64_t h, const DirectionalOutcome& out) {
  h = fnv1a_word(h, out.marginal_utility.size());
  for (const double u : out.marginal_utility) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(u));
  }
  return fnv1a_word(h, out.deliveries);
}

/// Every output bit of one kernel over the messy fleets: consecutive
/// clean rounds at four ratios, a round with server items and upload
/// loss, an exact-only delivery-loss round, and directional rounds.
std::uint64_t kernel_output_hash(DataPlaneMode mode) {
  const DecisionLattice lattice(3);
  const DataUniverse universe = make_synthetic_universe();
  const std::size_t k = lattice.num_decisions();
  const std::size_t omega = universe.size();
  std::uint64_t h = kFnv1aBasis;
  RoundOutcome out;

  const FleetSoA fleet = make_messy_fleet(60, k, omega, /*seed=*/11);
  for (const double x : {0.0, 0.37, 0.8, 1.0}) {
    EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual,
                              99);
    for (int round = 0; round < 3; ++round) {
      plane.run_round_into(fleet.view(), x, {}, {}, mode, out);
      h = fold_outcome(h, out);
    }
  }

  const FleetSoA lossy = make_messy_fleet(40, k, omega, /*seed=*/29);
  CellFaultMask upload_loss;
  Rng upload_rng(4);
  for (std::size_t v = 0; v < lossy.size(); ++v) {
    upload_loss.upload_lost.push_back(upload_rng.bernoulli(0.2) ? 1 : 0);
  }
  EdgeServerDataPlane lossy_plane(lattice, universe,
                                  AccessRule::kSubsetOrEqual, 5);
  lossy_plane.run_round_into(lossy.view(), 0.6, upload_loss,
                             ItemSet{1, 5, 9, 17}, mode, out);
  h = fold_outcome(h, out);

  if (mode == DataPlaneMode::kPairwiseExact) {
    const FleetSoA dropped = make_messy_fleet(30, k, omega, /*seed=*/43);
    CellFaultMask delivery_loss;
    Rng delivery_rng(9);
    for (std::size_t i = 0; i < dropped.size() * dropped.size(); ++i) {
      delivery_loss.delivery_lost.push_back(delivery_rng.bernoulli(0.1) ? 1
                                                                         : 0);
    }
    EdgeServerDataPlane dropped_plane(lattice, universe,
                                      AccessRule::kSubsetOrEqual, 77);
    dropped_plane.run_round_into(dropped.view(), 0.7, delivery_loss, {}, mode,
                                 out);
    h = fold_outcome(h, out);
  }

  const FleetSoA senders = make_messy_fleet(25, k, omega, /*seed=*/31);
  const FleetSoA receivers = make_messy_fleet(35, k, omega, /*seed=*/37);
  EdgeServerDataPlane cross_plane(lattice, universe,
                                  AccessRule::kSubsetOrEqual, 123);
  DirectionalOutcome cross;
  for (int round = 0; round < 2; ++round) {
    cross_plane.run_directional_into(senders.view(), receivers.view(), 0.55,
                                     mode, cross);
    h = fold_outcome(h, cross);
  }
  return h;
}

// Both kernels' outcomes, pinned bit for bit. A refactor of either kernel
// (a new set representation, a reordered loop) must keep every operation,
// draw and summation order, so it must keep these values; a change that
// moves them on purpose re-pins them and says why.
TEST(DataPlane, OutcomeBitsArePinnedAcrossCommits) {
  const std::uint64_t exact = kernel_output_hash(DataPlaneMode::kPairwiseExact);
  const std::uint64_t aggregated =
      kernel_output_hash(DataPlaneMode::kClassAggregated);
  EXPECT_EQ(exact, 0x2f3aacb1dc56aadbULL) << std::hex << exact;
  EXPECT_EQ(aggregated, 0xb336fe14950e32acULL) << std::hex << aggregated;
}

// The aggregated kernel at the scale fleets run it. The fleets above are too
// small for either of its fleet-scale paths: their binomials all invert the
// CDF, and none reaches kMissTableMinFleet. Here 2,600 vehicles on a
// 2-sensor lattice (4 classes) put hundreds of senders in each class, so the
// delivery draws take BTRS and both shapes read the miss table.
TEST(DataPlane, AggregatedBitsArePinnedAtFleetScale) {
  const DecisionLattice lattice(2);
  Rng universe_rng(13);
  const double privacy[] = {1.0, 0.3};
  const DataUniverse universe =
      DataUniverse::synthetic(2, 12, privacy, universe_rng);
  const std::size_t k = lattice.num_decisions();
  const std::size_t omega = universe.size();
  const FleetSoA fleet = make_messy_fleet(2600, k, omega, /*seed=*/17);
  const FleetSoA senders = make_messy_fleet(2500, k, omega, /*seed=*/19);
  std::uint64_t h = kFnv1aBasis;
  RoundOutcome out;
  DirectionalOutcome cross;
  for (const double x : {0.37, 0.6}) {
    EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual,
                              311);
    for (int round = 0; round < 2; ++round) {
      plane.run_round_into(fleet.view(), x, {}, ItemSet{2, 7, 15},
                           DataPlaneMode::kClassAggregated, out);
      h = fold_outcome(h, out);
      plane.run_directional_into(senders.view(), fleet.view(), x,
                                 DataPlaneMode::kClassAggregated, cross);
      h = fold_outcome(h, cross);
    }
  }
  EXPECT_EQ(h, 0x5cfb6f8c5e81c869ULL) << std::hex << h;
}

// ---------------------------------------------------------------------------
// Differential oracle: the exact kernels against a sort-merge reference
// ---------------------------------------------------------------------------

/// What the reference computes of one round: the receive side only.
struct ReferenceOutcome {
  std::vector<double> utility;
  std::size_t deliveries = 0;
  std::size_t deliveries_lost = 0;
};

/// The exact kernels written the plain way: gather what each receiver holds
/// into a vector, sort and deduplicate it, and merge it with the desired set
/// through measured_utility (after a set_difference with the collected set
/// on the directional shape). Uploads are filtered through
/// DecisionLattice::shares item by item. `rng_` replays the documented draw
/// order: one Bernoulli per readable ordered pair, receivers outer
/// ascending, senders inner ascending, none for a revoked receiver.
class SortMergeReference {
 public:
  SortMergeReference(const DecisionLattice& lattice,
                     const DataUniverse& universe, AccessRule access,
                     std::uint64_t seed)
      : lattice_(lattice), universe_(universe), access_(access), rng_(seed) {}

  ReferenceOutcome round(const FleetView& fleet, double x,
                         const CellFaultMask& mask,
                         const ItemSet& server_items) {
    const std::size_t n = fleet.size();
    const std::vector<ItemSet> up = uploads(fleet, mask.upload_lost);
    ReferenceOutcome out;
    out.utility.assign(n, 0.0);
    for (std::size_t a = 0; a < n; ++a) {
      const std::span<const ItemId> collected = fleet.collected_of(a);
      ItemSet received(collected.begin(), collected.end());
      received.insert(received.end(), server_items.begin(),
                      server_items.end());
      if (fleet.revoked[a] == 0) {
        for (std::size_t b = 0; b < n; ++b) {
          if (a == b || !readable(fleet.claimed(a), fleet.claimed(b))) {
            continue;
          }
          if (!rng_.bernoulli(x) || up[b].empty()) continue;
          if (!mask.delivery_lost.empty() && mask.delivery_lost[a * n + b]) {
            out.deliveries_lost += up[b].size();
            continue;
          }
          out.deliveries += up[b].size();
          received.insert(received.end(), up[b].begin(), up[b].end());
        }
      }
      sort_unique(received);
      const std::span<const ItemId> desired = fleet.desired_of(a);
      if (!desired.empty()) {
        out.utility[a] = measured_utility(universe_, received, desired);
      }
    }
    return out;
  }

  ReferenceOutcome directional(const FleetView& senders,
                               const FleetView& receivers, double x) {
    const std::vector<ItemSet> up = uploads(senders, {});
    ReferenceOutcome out;
    out.utility.assign(receivers.size(), 0.0);
    for (std::size_t a = 0; a < receivers.size(); ++a) {
      if (receivers.revoked[a] != 0) continue;
      ItemSet received;
      for (std::size_t b = 0; b < senders.size(); ++b) {
        if (!readable(receivers.claimed(a), senders.claimed(b))) continue;
        if (!rng_.bernoulli(x) || up[b].empty()) continue;
        out.deliveries += up[b].size();
        received.insert(received.end(), up[b].begin(), up[b].end());
      }
      sort_unique(received);
      const std::span<const ItemId> collected = receivers.collected_of(a);
      ItemSet fresh;
      std::set_difference(received.begin(), received.end(),
                          collected.begin(), collected.end(),
                          std::back_inserter(fresh));
      const std::span<const ItemId> desired = receivers.desired_of(a);
      if (!fresh.empty() && !desired.empty()) {
        out.utility[a] = measured_utility(universe_, fresh, desired);
      }
    }
    return out;
  }

 private:
  static void sort_unique(ItemSet& s) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  bool readable(core::DecisionId receiver, core::DecisionId sender) const {
    return access_ == AccessRule::kSubsetOrEqual
               ? lattice_.preceq(receiver, sender)
               : lattice_.precedes(receiver, sender);
  }

  std::vector<ItemSet> uploads(
      const FleetView& fleet,
      const std::vector<std::uint8_t>& upload_lost) const {
    std::vector<ItemSet> up(fleet.size());
    for (std::size_t b = 0; b < fleet.size(); ++b) {
      if (!upload_lost.empty() && upload_lost[b] != 0) continue;
      for (const ItemId id : fleet.collected_of(b)) {
        if (lattice_.shares(fleet.decision[b], universe_.item(id).sensor)) {
          up[b].push_back(id);
        }
      }
    }
    return up;
  }

  const DecisionLattice& lattice_;
  const DataUniverse& universe_;
  AccessRule access_;
  Rng rng_;
};

/// Per-vehicle utilities compared as bit patterns, plus the delivery
/// counters.
::testing::AssertionResult same_receive_side(
    std::span<const double> utility, std::size_t deliveries,
    std::size_t deliveries_lost, const ReferenceOutcome& want) {
  if (utility.size() != want.utility.size()) {
    return ::testing::AssertionFailure()
           << utility.size() << " utilities, want " << want.utility.size();
  }
  for (std::size_t v = 0; v < utility.size(); ++v) {
    if (std::bit_cast<std::uint64_t>(utility[v]) !=
        std::bit_cast<std::uint64_t>(want.utility[v])) {
      return ::testing::AssertionFailure()
             << "vehicle " << v << ": utility " << utility[v] << ", want "
             << want.utility[v];
    }
  }
  if (deliveries != want.deliveries ||
      deliveries_lost != want.deliveries_lost) {
    return ::testing::AssertionFailure()
           << "deliveries " << deliveries << "/" << deliveries_lost
           << " lost, want " << want.deliveries << "/"
           << want.deliveries_lost;
  }
  return ::testing::AssertionSuccess();
}

// The stamp kernels must reproduce the sort-merge kernels they replaced,
// bit for bit, on seeded messy fleets: overlapping uploads, server items
// that overlap collected sets, claims that differ from decisions, revoked
// receivers, empty desired sets, upload and delivery loss, both access
// rules, and the ratios where draws are skipped (0, 1) or consumed (0.37).
// Consecutive rounds share one stream, so any shift in the draw order
// surfaces in a later round.
TEST(DataPlane, StampKernelMatchesSortMergeReference) {
  const DecisionLattice lattice(3);
  const DataUniverse universe = make_synthetic_universe();
  const std::size_t k = lattice.num_decisions();
  const std::size_t omega = universe.size();
  const ItemSet no_server_items;
  const ItemSet server_items = {1, 5, 9, 17, 23};
  const CellFaultMask clean;

  // What the fleets and rounds exercised, so the oracle cannot pass
  // vacuously on a degenerate seed.
  const EdgeServerDataPlane probe(lattice, universe);
  std::size_t overlapping_uploads = 0;
  std::size_t revoked = 0;
  std::size_t false_claims = 0;
  std::size_t empty_desired = 0;
  std::size_t served_items_held = 0;
  std::size_t uploads_lost = 0;
  std::size_t deliveries_lost = 0;

  for (const AccessRule access :
       {AccessRule::kSubsetOrEqual, AccessRule::kStrictSubset}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FleetSoA fleet = make_messy_fleet(48, k, omega, 100 + seed);
      const FleetSoA senders = make_messy_fleet(20, k, omega, 200 + seed);
      const FleetView view = fleet.view();
      std::vector<std::size_t> uploaders(omega, 0);
      for (std::size_t v = 0; v < view.size(); ++v) {
        for (const ItemId id :
             probe.shared_items(view.decision[v], view.collected_of(v))) {
          ++uploaders[id];
        }
        revoked += view.revoked[v];
        false_claims += view.claimed(v) != view.decision[v] ? 1 : 0;
        empty_desired += view.desired_of(v).empty() ? 1 : 0;
        for (const ItemId id : server_items) {
          served_items_held += set_contains(view.collected_of(v), id) ? 1 : 0;
        }
      }
      overlapping_uploads += static_cast<std::size_t>(std::count_if(
          uploaders.begin(), uploaders.end(),
          [](std::size_t c) { return c >= 2; }));
      CellFaultMask lossy;
      Rng fault_rng(seed);
      for (std::size_t v = 0; v < view.size(); ++v) {
        lossy.upload_lost.push_back(fault_rng.bernoulli(0.2) ? 1 : 0);
      }
      for (std::size_t i = 0; i < view.size() * view.size(); ++i) {
        lossy.delivery_lost.push_back(fault_rng.bernoulli(0.15) ? 1 : 0);
      }

      for (const double x : {0.0, 0.37, 1.0}) {
        EdgeServerDataPlane plane(lattice, universe, access, seed);
        SortMergeReference reference(lattice, universe, access, seed);
        const std::pair<const CellFaultMask*, const ItemSet*> rounds[] = {
            {&clean, &no_server_items},
            {&clean, &server_items},
            {&lossy, &server_items},
            {&lossy, &no_server_items}};
        for (std::size_t r = 0; r < std::size(rounds); ++r) {
          const auto [mask, served] = rounds[r];
          RoundOutcome got;
          plane.run_round_into(view, x, *mask, *served,
                               DataPlaneMode::kPairwiseExact, got);
          const ReferenceOutcome want = reference.round(view, x, *mask,
                                                        *served);
          EXPECT_TRUE(same_receive_side(got.utility, got.deliveries,
                                        got.deliveries_lost, want))
              << "access " << static_cast<int>(access) << " seed " << seed
              << " x " << x << " round " << r;
          uploads_lost += got.uploads_lost;
          deliveries_lost += got.deliveries_lost;
        }
        DirectionalOutcome got;
        plane.run_directional_into(senders.view(), view, x,
                                   DataPlaneMode::kPairwiseExact, got);
        EXPECT_TRUE(same_receive_side(
            got.marginal_utility, got.deliveries, 0,
            reference.directional(senders.view(), view, x)))
            << "directional, access " << static_cast<int>(access) << " seed "
            << seed << " x " << x;
      }
    }
  }
  EXPECT_GT(overlapping_uploads, 0u);
  EXPECT_GT(revoked, 0u);
  EXPECT_GT(false_claims, 0u);
  EXPECT_GT(empty_desired, 0u);
  EXPECT_GT(served_items_held, 0u);
  EXPECT_GT(uploads_lost, 0u);
  EXPECT_GT(deliveries_lost, 0u);
}

}  // namespace
}  // namespace avcp::perception
