// FleetSoA's builders and views: whole-span, fixed-window and streaming
// appends, the per-round item refill (roster and arena capacity kept), and
// copies from another view.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "perception/fleet_soa.h"
#include "perception/measure.h"

namespace avcp::perception {
namespace {

TEST(FleetSoA, BuildersAndViewsAgree) {
  FleetSoA fleet;
  const std::size_t v0 = fleet.add(2);
  const std::size_t v1 = fleet.add(1, 3, true);

  // Fixed-size windows.
  auto c0 = fleet.alloc_collected(v0, 3);
  c0[0] = 4;
  c0[1] = 7;
  c0[2] = 9;
  // Streaming builder.
  fleet.begin_desired(v0);
  fleet.push_item(1);
  fleet.push_item(7);
  fleet.end_set();
  fleet.begin_collected(v1);
  fleet.end_set();  // empty set

  const FleetView view = fleet.view();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.decision[v0], 2u);
  EXPECT_EQ(view.claimed(v0), 2u);  // sentinel follows decision
  EXPECT_EQ(view.claimed(v1), 3u);
  EXPECT_NE(view.revoked[v1], 0);
  ASSERT_EQ(view.collected_of(v0).size(), 3u);
  EXPECT_EQ(view.collected_of(v0)[1], 7u);
  ASSERT_EQ(view.desired_of(v0).size(), 2u);
  EXPECT_TRUE(view.collected_of(v1).empty());

  std::vector<std::uint32_t> counts;
  fleet.count_classes(4, counts);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(FleetSoA, ResetItemsKeepsRosterAndCapacity) {
  FleetSoA fleet;
  fleet.add(0, kClaimFollowsDecision, false, ItemSet{1, 2, 3}, ItemSet{2});
  fleet.fitness()[0] = 1.5;
  fleet.reputation()[0] = 0.25;
  fleet.reset_items();
  EXPECT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet.arena_size(), 0u);
  EXPECT_TRUE(fleet.collected_of(0).empty());
  EXPECT_EQ(fleet.fitness()[0], 1.5);
  EXPECT_EQ(fleet.reputation()[0], 0.25);
  // Refill reuses the arena.
  auto c = fleet.alloc_collected(0, 2);
  c[0] = 5;
  c[1] = 8;
  EXPECT_EQ(fleet.collected_of(0).size(), 2u);
}

TEST(FleetSoA, CopyFromViewRepacksSpans) {
  FleetSoA src;
  src.add(1, kClaimFollowsDecision, false, ItemSet{3, 5}, ItemSet{4});
  src.add(2, 0, true, ItemSet{}, ItemSet{1, 2});

  FleetSoA dst;
  dst.add(src.view(), 1);
  dst.add(src.view(), 0);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.decision(0), 2u);
  EXPECT_EQ(dst.desired_of(0).size(), 2u);
  EXPECT_EQ(dst.collected_of(1).size(), 2u);
  EXPECT_EQ(dst.collected_of(1)[1], 5u);
}

}  // namespace
}  // namespace avcp::perception
