// Allocation regression guard for the data-plane round workspaces: after a
// warm-up round has grown every scratch buffer to its high-water mark,
// steady-state rounds through the _into entry points must perform ZERO heap
// allocations in both kernels. The guard counts through overridden global
// operator new/delete (this TU links into its own test binary, so the
// override is process-wide here and nowhere else).
#include "perception/data_plane.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/fds.h"
#include "core/fleet_stream.h"
#include "perception/fleet_soa.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"
#include "service/service_engine.h"
#include "sim/pipeline.h"
#include "system/fleet_engine.h"
#include "test_support.h"
#include "trace/generator.h"

namespace {
std::atomic<long long> g_live_allocs{0};

void* counted_alloc(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace avcp::perception {
namespace {

using core::AccessRule;
using core::DecisionLattice;

long long allocations_during(const std::function<void()>& body) {
  const long long before = g_live_allocs.load(std::memory_order_relaxed);
  body();
  return g_live_allocs.load(std::memory_order_relaxed) - before;
}

DataUniverse make_universe() {
  DataUniverse universe(3);
  for (std::size_t s = 0; s < 3; ++s) {
    const double privacy = s == 0 ? 1.0 : (s == 1 ? 0.5 : 0.1);
    for (int i = 0; i < 8; ++i) universe.add_item(s, 1.0, privacy);
  }
  return universe;
}

std::vector<Vehicle> make_fleet(const DataUniverse& universe, std::size_t n) {
  Rng rng(17);
  std::vector<Vehicle> fleet(n);
  for (auto& v : fleet) {
    v.decision = static_cast<core::DecisionId>(rng.uniform_int(0, 7));
    for (ItemId id = 0; id < universe.size(); ++id) {
      if (rng.bernoulli(0.4)) v.collected.push_back(id);
      if (rng.bernoulli(0.3)) v.desired.push_back(id);
    }
    if (v.desired.empty()) v.desired.push_back(0);
  }
  return fleet;
}

class AllocationGuard : public ::testing::TestWithParam<DataPlaneMode> {};

TEST_P(AllocationGuard, SteadyStateRoundsAreAllocationFree) {
  const DataPlaneMode mode = GetParam();
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual, 9);
  const auto fleet = make_fleet(universe, 60);
  const ItemSet server_items = {0, 5};
  RoundOutcome out;
  // Warm-up at x = 1 (maximal gather: every readable pair delivers) grows
  // all buffers to a bound no x <= 1 steady-state round can exceed.
  plane.run_round_into(fleet, 1.0, {}, server_items, mode, out);
  plane.run_round_into(fleet, 0.5, {}, server_items, mode, out);
  const long long allocs = allocations_during([&] {
    for (int r = 0; r < 25; ++r) {
      plane.run_round_into(fleet, 0.5, {}, server_items, mode, out);
    }
  });
  EXPECT_EQ(allocs, 0) << "mode " << static_cast<int>(mode);
}

TEST_P(AllocationGuard, SteadyStateDirectionalIsAllocationFree) {
  const DataPlaneMode mode = GetParam();
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual, 11);
  const auto senders = make_fleet(universe, 40);
  const auto receivers = make_fleet(universe, 40);
  EdgeServerDataPlane::DirectionalOutcome out;
  plane.run_directional_into(senders, receivers, 1.0, mode, out);
  plane.run_directional_into(senders, receivers, 0.5, mode, out);
  const long long allocs = allocations_during([&] {
    for (int r = 0; r < 25; ++r) {
      plane.run_directional_into(senders, receivers, 0.5, mode, out);
    }
  });
  EXPECT_EQ(allocs, 0) << "mode " << static_cast<int>(mode);
}

INSTANTIATE_TEST_SUITE_P(BothKernels, AllocationGuard,
                         ::testing::Values(DataPlaneMode::kPairwiseExact,
                                           DataPlaneMode::kClassAggregated));

// Shrinking the fleet must not re-grow anything either (buffers are
// high-water-marked, sized by count not by shape).
TEST(AllocationGuardShrink, SmallerFleetAfterLargerIsAllocationFree) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual, 13);
  const auto big = make_fleet(universe, 80);
  const auto small = make_fleet(universe, 20);
  RoundOutcome big_out;
  RoundOutcome small_out;
  plane.run_round_into(big, 1.0, {}, {}, DataPlaneMode::kClassAggregated,
                       big_out);
  plane.run_round_into(big, 1.0, {}, {}, DataPlaneMode::kPairwiseExact,
                       big_out);
  plane.run_round_into(small, 1.0, {}, {}, DataPlaneMode::kClassAggregated,
                       small_out);
  plane.run_round_into(small, 1.0, {}, {}, DataPlaneMode::kPairwiseExact,
                       small_out);
  const long long allocs = allocations_during([&] {
    for (int r = 0; r < 10; ++r) {
      plane.run_round_into(small, 0.5, {}, {}, DataPlaneMode::kClassAggregated,
                           small_out);
      plane.run_round_into(small, 0.5, {}, {}, DataPlaneMode::kPairwiseExact,
                           small_out);
    }
  });
  EXPECT_EQ(allocs, 0);
}

// The SoA round path carries the same guarantee: once the plane workspace
// and the FleetSoA arena have hit their high-water marks, FleetView rounds
// (including per-round item refills through reset_items + the open-set
// builder) allocate nothing.
TEST(AllocationGuardSoA, SteadyStateFleetViewRoundsAreAllocationFree) {
  const DecisionLattice lattice(3);
  const auto universe = make_universe();
  EdgeServerDataPlane plane(lattice, universe, AccessRule::kSubsetOrEqual, 9);
  const auto fleet = make_fleet(universe, 60);

  FleetSoA soa;
  soa.reserve(fleet.size(), 2 * universe.size() * fleet.size());
  for (const Vehicle& v : fleet) {
    soa.add(v.decision, v.claim, v.revoked, v.collected, v.desired);
  }
  RoundOutcome out;
  plane.run_round_into(soa.view(), 1.0, {}, {},
                       DataPlaneMode::kClassAggregated, out);
  plane.run_round_into(soa.view(), 1.0, {}, {}, DataPlaneMode::kPairwiseExact,
                       out);
  Rng refill_rng(23);
  const long long allocs = allocations_during([&] {
    for (int r = 0; r < 25; ++r) {
      // Per-round refill: drop every item set and stream new ones in.
      soa.reset_items();
      for (std::size_t v = 0; v < soa.size(); ++v) {
        soa.begin_collected(v);
        for (ItemId id = 0; id < universe.size(); ++id) {
          if (refill_rng.bernoulli(0.4)) soa.push_item(id);
        }
        soa.end_set();
        soa.begin_desired(v);
        soa.push_item(static_cast<ItemId>(v % universe.size()));
        soa.end_set();
      }
      plane.run_round_into(soa.view(), 0.5, {}, {},
                           DataPlaneMode::kClassAggregated, out);
      plane.run_round_into(soa.view(), 0.5, {}, {},
                           DataPlaneMode::kPairwiseExact, out);
    }
  });
  EXPECT_EQ(allocs, 0);
}

// The sharded fleet engine end-to-end: after ingest plus one warm-up round,
// steady-state rounds (scene refill, exchange, fitness, revision, stats
// fold) across every shard perform zero heap allocations.
TEST(AllocationGuardFleetEngine, SteadyStateEngineRoundsAreAllocationFree) {
  system::FleetEngineParams params;
  params.num_shards = 4;
  params.seed = 77;
  system::ShardedFleetEngine engine(params);
  core::SyntheticFleetSource source(2000, 8, 77);
  engine.ingest(source);
  system::FleetRoundStats stats;
  engine.run_round_into(0.6, stats);
  const long long allocs = allocations_during([&] {
    for (int r = 0; r < 10; ++r) engine.run_round_into(0.6, stats);
  });
  EXPECT_EQ(allocs, 0);
}

// The service layer's per-epoch scratch is hoisted into grow-only members:
// with the fleet roster static (churn off), steady-state epochs — snapshot,
// control, revision, reputation scoring — are completely allocation-free.
TEST(AllocationGuardService, ZeroChurnSteadyEpochsAreAllocationFree) {
  const auto game = core::testing::make_chain_game(4);
  const auto graph = roadnet::make_grid(6, 6);
  service::ServiceParams params;
  params.seed = 31;
  params.attacker_fraction = 0.1;
  core::FixedRatioController inner(0.5);
  service::ServiceEngine svc(game, inner, &graph, params);
  svc.init(game.uniform_state(), std::vector<double>(4, 0.5));
  for (int e = 0; e < 3; ++e) svc.run_epoch();  // warm-up: high-water marks
  const long long allocs = allocations_during([&] {
    for (int e = 0; e < 25; ++e) svc.run_epoch();
  });
  EXPECT_EQ(allocs, 0);
}

// With churn, exploit rejoins, and quarantine all active, epochs may still
// touch the heap only when the fleet roster itself outgrows its high-water
// capacity — a handful of amortized growths, not O(fleet) per epoch.
TEST(AllocationGuardService, ChurningEpochsHaveBoundedAllocations) {
  const auto game = core::testing::make_chain_game(4);
  const auto graph = roadnet::make_grid(6, 6);
  service::ServiceParams params;
  params.seed = 47;
  params.attacker_fraction = 0.15;
  params.churn_exploit = true;
  params.churn.join_rate = 0.05;
  params.churn.leave_rate = 0.05;
  params.churn.migrate_rate = 0.1;
  core::FixedRatioController inner(0.5);
  service::ServiceEngine svc(game, inner, &graph, params);
  svc.init(game.uniform_state(), std::vector<double>(4, 0.5));
  for (int e = 0; e < 10; ++e) svc.run_epoch();  // warm-up: high-water marks
  const long long allocs = allocations_during([&] {
    for (int e = 0; e < 20; ++e) svc.run_epoch();
  });
  EXPECT_LE(allocs, 8) << "per-epoch heap churn has crept back in";
}

// The guards above keep congestion_alpha = 0, so segment weights never move
// and centrality is never refreshed. With congestion on, a service epoch
// refreshes IncrementalBetweenness; at the benchmark's churn every chunk is
// dirty each time. Once warm, such a refresh allocates one pass workspace
// per chunk task, however many sources the chunk holds.
TEST(AllocationGuardBetweenness, FullRefreshAllocatesPerChunkNotPerSource) {
  const auto graph = roadnet::make_grid(18, 24);
  Rng rng(53);
  std::vector<double> low(graph.num_segments());
  std::vector<double> high(graph.num_segments());
  for (std::size_t s = 0; s < low.size(); ++s) {
    low[s] = static_cast<double>(rng.uniform_int(1, 3));
    high[s] = low[s] + 0.5;  // every segment changes on every refresh
  }
  std::vector<roadnet::SegmentId> segments(graph.num_segments());
  std::iota(segments.begin(), segments.end(), roadnet::SegmentId{0});
  roadnet::IncrementalBetweenness inc(graph, low);
  inc.update_weights(segments, high);  // warm-up: refresh scratch sized
  for (int r = 0; r < 4; ++r) {
    const std::vector<double>& next = r % 2 == 0 ? low : high;
    roadnet::IncrementalBetweenness::UpdateStats stats;
    const long long allocs = allocations_during(
        [&] { stats = inc.update_weights(segments, next); });
    ASSERT_EQ(stats.chunks_recomputed, inc.num_chunks());
    EXPECT_LE(allocs, static_cast<long long>(16 * inc.num_chunks()))
        << "refresh " << r << " allocates per source again";
  }
}

// Cold start, trace stage: trips are routed on one shortest-path tree per
// origin, built the first time a trip leaves that intersection and held for
// the generate() call, so a pass allocates per intersection, not per trip.
TEST(AllocationGuardPipeline, TraceGenerationAllocatesPerOriginNotPerTrip) {
  roadnet::CityParams city;
  city.rows = 12;
  city.cols = 14;
  const auto graph = roadnet::build_city(city);
  const trace::TraceGenerator generator(graph, trace::TraceParams{});
  std::size_t fixes = 0;
  const long long allocs = allocations_during([&] {
    generator.generate([&fixes](const trace::GpsFix&) { ++fixes; });
  });
  ASSERT_GT(fixes, 100000u);
  EXPECT_LE(allocs, static_cast<long long>(16 * graph.num_intersections()))
      << "the generator allocates per trip again";
}

// Cold start, gamma stage: the co-presence accumulator appends one flat
// record per fix, and build() sorts them window by window in reused
// buffers, so feeding a whole trace allocates a few dozen times (vector
// growth, the graph), not per fix.
TEST(AllocationGuardPipeline, GammaAccumulatorAllocatesPerBuildNotPerFix) {
  sim::PipelineConfig config;
  config.city.rows = 12;
  config.city.cols = 14;
  const sim::PipelineArtifacts a = sim::build_pipeline(config);
  ASSERT_GT(a.fixes.size(), 100000u);
  cluster::RegionGraphInputs inputs;
  inputs.region_of_segment = a.clustering.region_of;
  inputs.cell_of_segment = a.cell_of_segment;
  inputs.num_regions = config.num_regions;
  inputs.num_cells = config.num_servers;
  inputs.window_s = config.traces.fix_interval_s;
  inputs.duration_s = config.traces.duration_s;
  std::size_t edges = 0;
  const long long allocs = allocations_during([&] {
    cluster::RegionGraphAccumulator accumulator(inputs);
    for (const trace::GpsFix& fix : a.fixes) accumulator.add(fix);
    edges = accumulator.build().num_edges();
  });
  EXPECT_GT(edges, 0u);
  EXPECT_LE(allocs, 256) << "the accumulator allocates per fix again";
}

}  // namespace
}  // namespace avcp::perception
