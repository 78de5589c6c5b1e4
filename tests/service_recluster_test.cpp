// The incremental-equivalence contract of the service layer's clustering:
// for ANY seeded sequence of load deltas, the incrementally-maintained
// centrality and region clustering are bit-equal to the from-scratch
// computation over the same loads — at every thread count — while actually
// being incremental (some applies recompute only a strict subset of the
// source chunks).
#include "cluster/incremental_clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"

namespace avcp {
namespace {

using cluster::IncrementalClustering;
using cluster::IncrementalClusteringOptions;
using cluster::LoadDelta;

IncrementalClusteringOptions make_opts(std::size_t threads, double alpha) {
  IncrementalClusteringOptions opts;
  opts.clustering.num_regions = 4;
  opts.betweenness.num_threads = threads;
  opts.congestion_alpha = alpha;
  return opts;
}

/// A random bounded delta batch that keeps every load non-negative.
std::vector<LoadDelta> random_deltas(Rng& rng, std::vector<std::int64_t>& loads,
                                     std::size_t max_touched) {
  const std::size_t touched =
      1 + static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(max_touched) - 1));
  std::vector<LoadDelta> deltas;
  deltas.reserve(touched);
  for (std::size_t i = 0; i < touched; ++i) {
    const auto seg = static_cast<roadnet::SegmentId>(
        rng.uniform_int(0, static_cast<std::int64_t>(loads.size()) - 1));
    auto delta = static_cast<std::int32_t>(rng.uniform_int(-2, 3));
    if (loads[seg] + delta < 0) delta = -static_cast<std::int32_t>(loads[seg]);
    if (delta == 0) delta = 1;
    loads[seg] += delta;
    deltas.push_back({seg, delta});
  }
  return deltas;
}

void expect_clusterings_equal(const cluster::Clustering& a,
                              const cluster::Clustering& b) {
  EXPECT_EQ(a.region_of, b.region_of);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.seeds, b.seeds);
}

TEST(IncrementalClustering, AnySeededSequenceMatchesFromScratch) {
  const auto g = roadnet::make_grid(5, 5);
  const double alpha = 0.15;

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    bool saw_partial_recompute = false;
    std::vector<std::vector<double>> per_thread_centrality;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const auto opts = make_opts(threads, alpha);
      IncrementalClustering inc(g, opts);
      std::vector<std::int64_t> loads(g.num_segments(), 0);
      Rng rng(derive_seed(seed, {0x5ec1u}));
      for (std::size_t step = 0; step < 12; ++step) {
        const auto deltas = random_deltas(rng, loads, 6);
        const auto stats = inc.apply(deltas);
        const std::size_t num_chunks =
            std::min<std::size_t>(64, g.num_intersections());
        if (stats.chunks_recomputed > 0 &&
            stats.chunks_recomputed < num_chunks) {
          saw_partial_recompute = true;
        }
        ASSERT_EQ(std::vector<std::int64_t>(inc.loads().begin(),
                                            inc.loads().end()),
                  loads);
        // Bit-equal to the from-scratch pipeline over the same loads.
        expect_clusterings_equal(
            inc.clustering(),
            IncrementalClustering::scratch(g, loads, opts));
        const auto weights =
            IncrementalClustering::load_weights(g, loads, alpha);
        ASSERT_EQ(inc.centrality(), roadnet::segment_betweenness_weighted(
                                        g, weights, opts.betweenness))
            << "seed " << seed << " threads " << threads << " step " << step;
      }
      per_thread_centrality.push_back(inc.centrality());

      // set_loads over the final loads reproduces the incremental state —
      // the checkpoint-restore path.
      IncrementalClustering restored(g, opts);
      restored.set_loads(loads);
      ASSERT_EQ(restored.centrality(), inc.centrality());
      expect_clusterings_equal(restored.clustering(), inc.clustering());
    }
    for (std::size_t i = 1; i < per_thread_centrality.size(); ++i) {
      EXPECT_EQ(per_thread_centrality[0], per_thread_centrality[i]);
    }
    // The contract is only interesting if the path is actually
    // incremental: at least one apply must have skipped cached chunks.
    EXPECT_TRUE(saw_partial_recompute) << "seed " << seed;
  }
}

TEST(IncrementalClustering, ZeroAlphaNeverReclusters) {
  const auto g = roadnet::make_grid(4, 4);
  const auto opts = make_opts(1, 0.0);
  IncrementalClustering inc(g, opts);
  const auto initial = inc.clustering().region_of;
  std::vector<std::int64_t> loads(g.num_segments(), 0);
  Rng rng(99);
  for (std::size_t step = 0; step < 8; ++step) {
    const auto deltas = random_deltas(rng, loads, 4);
    const auto stats = inc.apply(deltas);
    EXPECT_EQ(stats.chunks_recomputed, 0u);
    EXPECT_FALSE(stats.reclustered);
  }
  EXPECT_EQ(inc.clustering().region_of, initial);
}

TEST(IncrementalClustering, RejectsNegativeLoad) {
  const auto g = roadnet::make_grid(3, 3);
  IncrementalClustering inc(g, make_opts(1, 0.1));
  const LoadDelta underflow{0, -1};
  EXPECT_THROW(inc.apply(std::span<const LoadDelta>(&underflow, 1)),
               ContractViolation);
}

TEST(IncrementalClustering, RejectedBatchLeavesLoadsUntouched) {
  // apply() and set_loads() check the whole batch before they commit: a
  // bad entry after a valid one must leave loads, centrality and
  // clustering exactly as they were.
  const auto g = roadnet::make_grid(4, 5);
  const double alpha = 0.1;
  const auto opts = make_opts(1, alpha);
  IncrementalClustering inc(g, opts);
  std::vector<std::int64_t> loads(g.num_segments(), 0);
  Rng rng(17);
  inc.apply(random_deltas(rng, loads, 6));
  const std::vector<double> centrality = inc.centrality();
  const cluster::Clustering clustering = inc.clustering();
  const auto expect_untouched = [&](const char* what) {
    EXPECT_EQ(std::vector<std::int64_t>(inc.loads().begin(),
                                        inc.loads().end()),
              loads)
        << what;
    EXPECT_EQ(inc.centrality(), centrality) << what;
    expect_clusterings_equal(inc.clustering(), clustering);
  };

  const roadnet::SegmentId valid = 0;
  const auto empty = static_cast<roadnet::SegmentId>(
      std::find(loads.begin() + 1, loads.end(), 0) - loads.begin());
  ASSERT_LT(empty, g.num_segments());
  const std::vector<LoadDelta> underflow = {{valid, 2}, {empty, -1}};
  EXPECT_THROW(inc.apply(underflow), ContractViolation);
  expect_untouched("underflow");
  // The running count must stay non-negative even if the batch nets out.
  const std::vector<LoadDelta> dip = {{valid, 2}, {empty, -1}, {empty, 3}};
  EXPECT_THROW(inc.apply(dip), ContractViolation);
  expect_untouched("dip");
  const std::vector<LoadDelta> out_of_range = {
      {valid, 2}, {static_cast<roadnet::SegmentId>(g.num_segments()), 1}};
  EXPECT_THROW(inc.apply(out_of_range), ContractViolation);
  expect_untouched("out of range");
  std::vector<std::int64_t> negative = loads;
  negative[valid] += 2;
  negative.back() = -1;
  EXPECT_THROW(inc.set_loads(negative), ContractViolation);
  expect_untouched("set_loads");

  // The valid part of the rejected batches still applies and matches the
  // from-scratch pipeline.
  const LoadDelta add{valid, 2};
  inc.apply(std::span<const LoadDelta>(&add, 1));
  loads[valid] += 2;
  ASSERT_EQ(
      std::vector<std::int64_t>(inc.loads().begin(), inc.loads().end()),
      loads);
  expect_clusterings_equal(inc.clustering(),
                           IncrementalClustering::scratch(g, loads, opts));
  EXPECT_EQ(inc.centrality(),
            roadnet::segment_betweenness_weighted(
                g, IncrementalClustering::load_weights(g, loads, alpha),
                opts.betweenness));
}

// Building from starting loads is the checkpoint restore's one pass. It
// must leave exactly the state construction at zero loads followed by
// set_loads leaves: the clustering, the centrality bits, and the cached
// distances the next apply() tests sources against, which show in that
// batch's RefreshStats and its result.
TEST(IncrementalClustering, StartingLoadsMatchSetLoads) {
  roadnet::CityParams city;
  city.rows = 9;
  city.cols = 11;
  const auto g = roadnet::build_city(city);
  for (const double alpha : {0.0, 0.15}) {
    const auto opts = make_opts(2, alpha);
    std::vector<std::int64_t> loads(g.num_segments(), 0);
    Rng rng(41);
    for (int batch = 0; batch < 4; ++batch) random_deltas(rng, loads, 40);

    IncrementalClustering started(g, opts, loads);
    IncrementalClustering set(g, opts);
    set.set_loads(loads);
    ASSERT_TRUE(std::ranges::equal(started.loads(), set.loads()));
    expect_clusterings_equal(started.clustering(), set.clustering());
    ASSERT_EQ(started.centrality(), set.centrality()) << "alpha " << alpha;

    std::vector<std::int64_t> next = loads;
    for (int batch = 0; batch < 3; ++batch) {
      const auto deltas = random_deltas(rng, next, 8);
      const auto a = started.apply(deltas);
      const auto b = set.apply(deltas);
      EXPECT_EQ(a.segments_changed, b.segments_changed);
      EXPECT_EQ(a.sources_affected, b.sources_affected);
      EXPECT_EQ(a.chunks_recomputed, b.chunks_recomputed);
      EXPECT_EQ(a.reclustered, b.reclustered);
      expect_clusterings_equal(started.clustering(), set.clustering());
      ASSERT_EQ(started.centrality(), set.centrality())
          << "alpha " << alpha << " batch " << batch;
    }
  }

  // Empty starting loads are all zero; a wrong length or a negative load
  // is rejected.
  const auto opts = make_opts(1, 0.1);
  IncrementalClustering zero(g, opts, {});
  IncrementalClustering plain(g, opts);
  EXPECT_EQ(zero.centrality(), plain.centrality());
  std::vector<std::int64_t> wrong(g.num_segments() - 1, 0);
  EXPECT_THROW(IncrementalClustering(g, opts, wrong), ContractViolation);
  std::vector<std::int64_t> negative(g.num_segments(), 0);
  negative[3] = -1;
  EXPECT_THROW(IncrementalClustering(g, opts, negative), ContractViolation);
}

}  // namespace
}  // namespace avcp
