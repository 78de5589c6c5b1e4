#include "roadnet/betweenness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "roadnet/builders.h"

namespace avcp::roadnet {
namespace {

/// Brute-force oracle: enumerates every shortest path (by hops) of every
/// ordered pair via DFS over the BFS predecessor DAG, splitting one unit of
/// pair weight equally across the pair's shortest paths. Matches Brandes'
/// definition exactly on small graphs.
std::vector<double> brute_force_betweenness(const RoadGraph& g,
                                            bool normalize) {
  const std::size_t n = g.num_intersections();
  std::vector<double> centrality(g.num_segments(), 0.0);

  for (NodeId s = 0; s < n; ++s) {
    // BFS for distances and predecessor segments.
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<std::vector<Hop>> preds(n);
    std::queue<NodeId> frontier;
    dist[s] = 0.0;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (const Hop& hop : g.neighbors(v)) {
        if (dist[hop.node] == std::numeric_limits<double>::infinity()) {
          dist[hop.node] = dist[v] + 1.0;
          frontier.push(hop.node);
        }
        if (dist[hop.node] == dist[v] + 1.0) {
          preds[hop.node].push_back(Hop{hop.segment, v});
        }
      }
    }
    for (NodeId t = 0; t < n; ++t) {
      if (t == s || dist[t] == std::numeric_limits<double>::infinity()) {
        continue;
      }
      // Enumerate all shortest s->t paths.
      std::vector<std::vector<SegmentId>> paths;
      std::vector<SegmentId> current;
      const std::function<void(NodeId)> walk = [&](NodeId v) {
        if (v == s) {
          paths.push_back(current);
          return;
        }
        for (const Hop& pred : preds[v]) {
          current.push_back(pred.segment);
          walk(pred.node);
          current.pop_back();
        }
      };
      walk(t);
      const double share = 1.0 / static_cast<double>(paths.size());
      for (const auto& path : paths) {
        for (const SegmentId seg : path) centrality[seg] += share;
      }
    }
  }
  double norm = 2.0;  // ordered pairs counted twice
  if (normalize && n > 2) {
    norm *= static_cast<double>((n - 1) * (n - 2));
  }
  for (double& c : centrality) c /= norm;
  return centrality;
}

TEST(Betweenness, LineGraphClosedForm) {
  const std::uint32_t n = 6;
  const RoadGraph g = make_line(n);
  const auto bc = segment_betweenness(g);
  ASSERT_EQ(bc.size(), n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double expected = static_cast<double>((i + 1) * (n - 1 - i)) /
                            static_cast<double>((n - 1) * (n - 2));
    EXPECT_NEAR(bc[i], expected, 1e-12) << "edge " << i;
  }
}

TEST(Betweenness, MiddleOfLineIsMostCentral) {
  const RoadGraph g = make_line(9);
  const auto bc = segment_betweenness(g);
  for (std::size_t i = 0; i + 1 < bc.size(); ++i) {
    if (i < bc.size() / 2) {
      EXPECT_LE(bc[i], bc[i + 1]);
    } else {
      EXPECT_GE(bc[i], bc[i + 1]);
    }
  }
}

TEST(Betweenness, RingIsUniform) {
  const RoadGraph g = make_ring(8);
  const auto bc = segment_betweenness(g);
  for (std::size_t i = 1; i < bc.size(); ++i) {
    EXPECT_NEAR(bc[i], bc[0], 1e-12);
  }
  EXPECT_GT(bc[0], 0.0);
}

TEST(Betweenness, MatchesBruteForceOnGrid) {
  const RoadGraph g = make_grid(3, 3);
  const auto fast = segment_betweenness(g);
  const auto oracle = brute_force_betweenness(g, /*normalize=*/true);
  ASSERT_EQ(fast.size(), oracle.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], oracle[i], 1e-9) << "segment " << i;
  }
}

TEST(Betweenness, MatchesBruteForceUnnormalized) {
  const RoadGraph g = make_grid(2, 4);
  BetweennessOptions opts;
  opts.normalize = false;
  const auto fast = segment_betweenness(g, opts);
  const auto oracle = brute_force_betweenness(g, /*normalize=*/false);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], oracle[i], 1e-9) << "segment " << i;
  }
}

// Sweep over procedurally-built cities: Brandes must agree with the oracle
// for each seed (structure varies with pruning).
class BetweennessCitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BetweennessCitySweep, MatchesBruteForceOnPrunedCity) {
  CityParams params;
  params.rows = 4;
  params.cols = 4;
  params.arterial_period = 3;
  params.collector_period = 2;
  params.seed = GetParam();
  const RoadGraph g = build_city(params);
  const auto fast = segment_betweenness(g);
  const auto oracle = brute_force_betweenness(g, /*normalize=*/true);
  ASSERT_EQ(fast.size(), oracle.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], oracle[i], 1e-9) << "segment " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BetweennessCitySweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Betweenness, WeightedMetricChangesRanking) {
  // Two routes between the same endpoints: a short slow local detour and a
  // long fast arterial. Hop metric favours the direct edge; travel time can
  // favour the arterial chain.
  RoadGraph g;
  const NodeId a = g.add_intersection(PointM{0.0, 0.0});
  const NodeId b = g.add_intersection(PointM{1000.0, 0.0});
  const NodeId m = g.add_intersection(PointM{500.0, 200.0});
  // Direct local edge: 1000 m at 2 m/s -> 500 s.
  const SegmentId direct = g.add_segment(a, b, RoadClass::kLocal, 2.0);
  // Two-hop arterial: ~1077 m at 30 m/s -> ~36 s.
  g.add_segment(a, m, RoadClass::kArterial, 30.0);
  g.add_segment(m, b, RoadClass::kArterial, 30.0);
  g.finalize();

  BetweennessOptions hops;
  hops.metric = PathMetric::kHops;
  hops.normalize = false;
  const auto bc_hops = segment_betweenness(g, hops);

  BetweennessOptions time;
  time.metric = PathMetric::kTravelTime;
  time.normalize = false;
  const auto bc_time = segment_betweenness(g, time);

  // Under hops the direct edge carries the a-b pair; under travel time it
  // carries nothing.
  EXPECT_GT(bc_hops[direct], 0.0);
  EXPECT_NEAR(bc_time[direct], 0.0, 1e-12);
}

TEST(Betweenness, ParallelMatchesSerial) {
  CityParams params;
  params.rows = 10;
  params.cols = 10;
  params.seed = 6;
  const RoadGraph g = build_city(params);
  const auto serial = segment_betweenness(g);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    BetweennessOptions opts;
    opts.num_threads = threads;
    const auto parallel = segment_betweenness(g, opts);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(parallel[i], serial[i], 1e-9)
          << "threads=" << threads << " segment=" << i;
    }
  }
}

TEST(Betweenness, ParallelIsReproducibleForFixedThreadCount) {
  const RoadGraph g = make_grid(6, 6);
  BetweennessOptions opts;
  opts.num_threads = 3;
  const auto a = segment_betweenness(g, opts);
  const auto b = segment_betweenness(g, opts);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bit-identical
  }
}

TEST(Betweenness, MoreThreadsThanSourcesIsSafe) {
  const RoadGraph g = make_line(3);
  BetweennessOptions opts;
  opts.num_threads = 64;
  const auto bc = segment_betweenness(g, opts);
  const auto serial = segment_betweenness(g);
  for (std::size_t i = 0; i < bc.size(); ++i) {
    EXPECT_NEAR(bc[i], serial[i], 1e-12);
  }
}

TEST(Betweenness, ThreadCountNeverMovesABit) {
  // Chunk boundaries depend only on the source count and the partials are
  // reduced in chunk order on the caller, so every thread count — including
  // more threads than chunks — returns the exact same doubles. This locks
  // the fix for the old strided partition, whose summation order (and last
  // ulp) changed with num_threads.
  CityParams params;
  params.rows = 9;
  params.cols = 9;
  params.seed = 11;
  const RoadGraph g = build_city(params);
  for (const auto metric : {PathMetric::kHops, PathMetric::kTravelTime}) {
    BetweennessOptions serial_opts;
    serial_opts.metric = metric;
    serial_opts.num_threads = 1;
    const auto serial = segment_betweenness(g, serial_opts);
    for (const std::size_t threads : {2u, 4u, 8u, 64u}) {
      BetweennessOptions opts;
      opts.metric = metric;
      opts.num_threads = threads;
      const auto parallel = segment_betweenness(g, opts);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(parallel[i], serial[i])
            << "metric=" << static_cast<int>(metric) << " threads=" << threads
            << " segment=" << i;
      }
    }
  }
}

TEST(Betweenness, WeightedTieRecognizedDespiteFloatDrift) {
  // Two routes between a and b with mathematically identical travel time
  // 2S/3: route A is two hops of S/3 seconds, route B three hops of 2S/9
  // seconds. At S = 2e7 m the accumulated sums differ by exactly one ulp
  // (~1.9e-9 s) — beyond the old absolute 1e-9 tie window, which credited
  // the whole a<->b pair to whichever route drifted low. The relative
  // tolerance recognises the tie, so sigma(a,b) = 2 and each route carries
  // half the pair.
  constexpr double kS = 2e7;
  RoadGraph g;
  const NodeId a = g.add_intersection(PointM{0.0, 0.0});
  const NodeId m = g.add_intersection(PointM{kS, 0.0});
  const NodeId b = g.add_intersection(PointM{2.0 * kS, 0.0});
  const NodeId n1 = g.add_intersection(PointM{0.0, kS});
  const NodeId n2 = g.add_intersection(PointM{2.0 * kS, kS});
  // Route A: two axis-aligned hops of length S at 3 m/s -> S/3 s each.
  const SegmentId a1 = g.add_segment(a, m, RoadClass::kArterial, 3.0);
  const SegmentId a2 = g.add_segment(m, b, RoadClass::kArterial, 3.0);
  // Route B: lengths S, 2S, S at speeds 4.5, 9, 4.5 -> 2S/9 s each.
  const SegmentId b1 = g.add_segment(a, n1, RoadClass::kArterial, 4.5);
  const SegmentId b2 = g.add_segment(n1, n2, RoadClass::kArterial, 9.0);
  const SegmentId b3 = g.add_segment(n2, b, RoadClass::kArterial, 4.5);
  g.finalize();

  // Precondition for the regression: the two accumulated totals really do
  // drift apart in floating point (otherwise this test proves nothing).
  const double total_a = kS / 3.0 + kS / 3.0;
  const double total_b = (kS / 4.5 + 2.0 * kS / 9.0) + kS / 4.5;
  ASSERT_NE(total_a, total_b);
  ASSERT_GT(std::abs(total_a - total_b), 1e-9);

  BetweennessOptions opts;
  opts.metric = PathMetric::kTravelTime;
  opts.normalize = false;
  const auto bc = segment_betweenness(g, opts);

  // With the tie recognized, the a<->b unit splits 0.5 / 0.5 across the
  // routes: route A segments carry 1 + 0.5 + 1 = 2.5 and route B segments
  // 0.5 + 3 = 3.5 over the ten node pairs. A missed tie hands the whole
  // unit to route B (2.0 vs 4.0).
  EXPECT_NEAR(bc[a1], 2.5, 1e-12);
  EXPECT_NEAR(bc[a2], 2.5, 1e-12);
  EXPECT_NEAR(bc[b1], 3.5, 1e-12);
  EXPECT_NEAR(bc[b2], 3.5, 1e-12);
  EXPECT_NEAR(bc[b3], 3.5, 1e-12);
}

TEST(Betweenness, TinyWeightTiesStillMerge) {
  // The flip side of a relative window: on millimetre-scale graphs the old
  // absolute 1e-9 window dwarfed real length differences. Equal-length
  // branches at 1e-3 m must still tie under the relative tolerance.
  RoadGraph g;
  const NodeId a = g.add_intersection(PointM{0.0, 0.0});
  const NodeId t = g.add_intersection(PointM{2e-3, 0.0});
  const NodeId up = g.add_intersection(PointM{1e-3, 1e-3});
  const NodeId dn = g.add_intersection(PointM{1e-3, -1e-3});
  const SegmentId u1 = g.add_segment(a, up, RoadClass::kLocal, 1.0);
  const SegmentId u2 = g.add_segment(up, t, RoadClass::kLocal, 1.0);
  const SegmentId d1 = g.add_segment(a, dn, RoadClass::kLocal, 1.0);
  const SegmentId d2 = g.add_segment(dn, t, RoadClass::kLocal, 1.0);
  g.finalize();

  BetweennessOptions opts;
  opts.metric = PathMetric::kDistance;
  opts.normalize = false;
  const auto bc = segment_betweenness(g, opts);
  // Symmetric diamond: the a<->t pair splits equally over both branches.
  EXPECT_NEAR(bc[u1], bc[d1], 1e-12);
  EXPECT_NEAR(bc[u2], bc[d2], 1e-12);
  EXPECT_NEAR(bc[u1], bc[u2], 1e-12);
}

/// 64-bit FNV-1a over the bit patterns of `values`, little end first.
std::uint64_t fnv1a_bits(std::span<const double> values,
                         std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Per-segment weights drawn from {1, 2, 3}: many equal-cost paths, so the
/// pass's summation order shows in the low bits.
std::vector<double> tie_heavy_weights(const RoadGraph& g, Rng& rng) {
  std::vector<double> w(g.num_segments());
  for (double& x : w) x = static_cast<double>(rng.uniform_int(1, 3));
  return w;
}

/// Hashes of every entry point's output on `g`, in a fixed order: kHops,
/// kTravelTime, tie-heavy weighted, and incremental after a seeded
/// update_weights sequence (each step's centrality folded in).
std::vector<std::uint64_t> brandes_output_hashes(const RoadGraph& g) {
  std::vector<std::uint64_t> hashes;
  BetweennessOptions hops;
  hops.metric = PathMetric::kHops;
  hashes.push_back(fnv1a_bits(segment_betweenness(g, hops)));
  BetweennessOptions time;
  time.metric = PathMetric::kTravelTime;
  hashes.push_back(fnv1a_bits(segment_betweenness(g, time)));

  Rng weight_rng(41);
  const std::vector<double> weights = tie_heavy_weights(g, weight_rng);
  hashes.push_back(fnv1a_bits(segment_betweenness_weighted(g, weights)));

  IncrementalBetweenness inc(g, weights);
  std::uint64_t h = fnv1a_bits(inc.centrality());
  Rng update_rng(47);
  std::vector<SegmentId> segments;
  std::vector<double> updated;
  for (int step = 0; step < 4; ++step) {
    segments.clear();
    updated.clear();
    for (int u = 0; u < 24; ++u) {
      segments.push_back(static_cast<SegmentId>(update_rng.uniform_int(
          0, static_cast<std::int64_t>(g.num_segments()) - 1)));
      updated.push_back(static_cast<double>(update_rng.uniform_int(1, 3)));
    }
    inc.update_weights(segments, updated);
    h = fnv1a_bits(inc.centrality(), h);
  }
  hashes.push_back(h);
  return hashes;
}

TEST(Betweenness, OutputBitsArePinnedAcrossCommits) {
  // Every other test compares the pass with itself (thread counts, the
  // incremental path against the from-scratch one) or with an oracle at a
  // tolerance, so none of them notices a change in summation order, which
  // moves every downstream clustering and trajectory. An algebraically
  // equal rewrite of the dependency share changes these hashes on the large
  // tie-heavy grid. Update them only with a deliberate change to the pass's
  // arithmetic.
  CityParams params;
  params.rows = 12;
  params.cols = 14;
  params.seed = 5;
  const std::vector<std::uint64_t> grid =
      brandes_output_hashes(make_grid(18, 24));
  const std::vector<std::uint64_t> city =
      brandes_output_hashes(build_city(params));
  const std::vector<std::uint64_t> expected_grid = {
      12293146238007581453ULL, 12293146238007581453ULL,
      17582749161703920851ULL, 14695569895713654794ULL};
  const std::vector<std::uint64_t> expected_city = {
      9928341627170946214ULL, 16403329882053428422ULL,
      6059199429367659862ULL, 7612762528795956256ULL};
  EXPECT_EQ(grid, expected_grid);
  EXPECT_EQ(city, expected_city);
}

/// One pass of the Brandes accumulation as it stood before the flat
/// adjacency and the hand-written heap, kept as a differential oracle:
/// std::push_heap / std::pop_heap over (dist, node) pairs, neighbors(),
/// weights[segment] and the same relative tie tolerance. An empty
/// `weights` selects the BFS path, as in the library.
void reference_pass(const RoadGraph& g, NodeId source,
                    std::span<const double> weights,
                    std::vector<double>& centrality) {
  const std::size_t n = g.num_intersections();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<double> sigma(n, 0.0);
  std::vector<double> delta(n, 0.0);
  std::vector<std::vector<Hop>> preds(n);
  std::vector<NodeId> order;
  dist[source] = 0.0;
  sigma[source] = 1.0;
  if (weights.empty()) {
    order.push_back(source);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      for (const Hop& hop : g.neighbors(v)) {
        const NodeId w = hop.node;
        if (dist[w] == kInf) {
          dist[w] = dist[v] + 1.0;
          order.push_back(w);
        }
        if (dist[w] == dist[v] + 1.0) {
          sigma[w] += sigma[v];
          preds[w].push_back(Hop{hop.segment, v});
        }
      }
    }
  } else {
    std::vector<std::pair<double, NodeId>> heap{{0.0, source}};
    std::vector<bool> settled(n, false);
    constexpr double kTieTolRel = 1e-12;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, v] = heap.back();
      heap.pop_back();
      if (settled[v]) continue;
      settled[v] = true;
      order.push_back(v);
      for (const Hop& hop : g.neighbors(v)) {
        const NodeId w = hop.node;
        const double nd = d + weights[hop.segment];
        const double tol = kTieTolRel * nd;
        if (nd < dist[w] - tol) {
          dist[w] = nd;
          sigma[w] = sigma[v];
          preds[w].assign(1, Hop{hop.segment, v});
          heap.emplace_back(nd, w);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        } else if (std::abs(nd - dist[w]) <= tol && !settled[w]) {
          sigma[w] += sigma[v];
          preds[w].push_back(Hop{hop.segment, v});
        }
      }
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId w = *it;
    for (const Hop& pred : preds[w]) {
      const double share = sigma[pred.node] / sigma[w] * (1.0 + delta[w]);
      centrality[pred.segment] += share;
      delta[pred.node] += share;
    }
  }
}

/// The reference passes from every intersection, split into the library's
/// <= 64 contiguous chunks, each chunk's partial summed in source order and
/// the partials reduced in chunk order, then normalised.
std::vector<double> reference_betweenness(const RoadGraph& g, bool normalize,
                                          std::span<const double> weights) {
  const std::size_t n = g.num_intersections();
  const std::size_t num_chunks =
      std::min<std::size_t>(64, std::max<std::size_t>(1, n));
  std::vector<double> centrality(g.num_segments(), 0.0);
  std::vector<double> partial(g.num_segments());
  for (std::size_t c = 0; c < num_chunks; ++c) {
    std::fill(partial.begin(), partial.end(), 0.0);
    const std::size_t begin = n * c / num_chunks;
    const std::size_t end = n * (c + 1) / num_chunks;
    for (std::size_t s = begin; s < end; ++s) {
      reference_pass(g, static_cast<NodeId>(s), weights, partial);
    }
    for (std::size_t i = 0; i < centrality.size(); ++i) {
      centrality[i] += partial[i];
    }
  }
  double norm = 2.0;
  if (normalize) {
    const auto n = static_cast<double>(g.num_intersections());
    if (n > 2.0) norm *= (n - 1.0) * (n - 2.0);
  }
  for (double& c : centrality) c = c / norm;
  return centrality;
}

/// Per-segment costs of a metric; empty for kHops, which runs BFS.
std::vector<double> reference_metric_weights(const RoadGraph& g,
                                             PathMetric metric) {
  std::vector<double> w;
  if (metric == PathMetric::kHops) return w;
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    w.push_back(metric == PathMetric::kDistance ? g.segment(s).length_m
                                                : g.segment(s).travel_time_s());
  }
  return w;
}

::testing::AssertionResult same_bits(std::span<const double> got,
                                     std::span<const double> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " values, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "segment " << i << ": " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every entry point on `g` against the reference, at 1 and 4 threads:
/// each metric, `weights` through the weighted entry point (normalised and
/// raw), and IncrementalBetweenness from `weights` through seeded updates
/// that draw new values from `weights` itself, so tie-heavy inputs stay
/// tie-heavy.
void expect_matches_reference(const RoadGraph& g,
                              const std::vector<double>& weights,
                              std::uint64_t seed, const std::string& name) {
  for (const auto metric :
       {PathMetric::kHops, PathMetric::kDistance, PathMetric::kTravelTime}) {
    const std::vector<double> exact =
        reference_betweenness(g, true, reference_metric_weights(g, metric));
    for (const std::size_t threads : {1u, 4u}) {
      BetweennessOptions opts;
      opts.metric = metric;
      opts.num_threads = threads;
      EXPECT_TRUE(same_bits(segment_betweenness(g, opts), exact))
          << name << " metric " << static_cast<int>(metric) << " threads "
          << threads;
    }
  }
  for (const bool normalize : {true, false}) {
    const std::vector<double> expected =
        reference_betweenness(g, normalize, weights);
    for (const std::size_t threads : {1u, 4u}) {
      BetweennessOptions opts;
      opts.normalize = normalize;
      opts.num_threads = threads;
      EXPECT_TRUE(
          same_bits(segment_betweenness_weighted(g, weights, opts), expected))
          << name << " weighted, normalize " << normalize << " threads "
          << threads;
    }
  }

  BetweennessOptions four;
  four.num_threads = 4;
  IncrementalBetweenness serial(g, weights);
  IncrementalBetweenness parallel(g, weights, four);
  std::vector<double> current = weights;
  Rng update_rng(derive_seed(seed, {0xB5u}));
  for (int step = 0; step <= 3; ++step) {
    const std::vector<double> expected =
        reference_betweenness(g, true, current);
    EXPECT_TRUE(same_bits(serial.centrality(), expected))
        << name << " incremental, 1 thread, step " << step;
    EXPECT_TRUE(same_bits(parallel.centrality(), expected))
        << name << " incremental, 4 threads, step " << step;
    if (g.num_segments() == 0 || step == 3) break;
    const auto last = static_cast<std::int64_t>(g.num_segments()) - 1;
    std::vector<SegmentId> segments;
    std::vector<double> updated;
    for (int u = 0; u < 12; ++u) {
      const auto s = static_cast<SegmentId>(update_rng.uniform_int(0, last));
      const double w =
          weights[static_cast<std::size_t>(update_rng.uniform_int(0, last))];
      segments.push_back(s);
      updated.push_back(w);
      current[s] = w;  // later duplicates win
    }
    serial.update_weights(segments, updated);
    parallel.update_weights(segments, updated);
    EXPECT_TRUE(same_bits(serial.weights(), current)) << name;
  }
}

/// Two `rows` x `cols` grids side by side with no segment between them.
/// Component A holds the first half of the nodes and segments.
RoadGraph two_components(std::uint32_t rows, std::uint32_t cols) {
  RoadGraph g;
  for (int part = 0; part < 2; ++part) {
    const auto base = static_cast<NodeId>(g.num_intersections());
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        g.add_intersection(PointM{100.0 * c + 1e4 * part, 100.0 * r});
      }
    }
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        const NodeId v = base + r * cols + c;
        if (c + 1 < cols) g.add_segment(v, v + 1, RoadClass::kLocal);
        if (r + 1 < rows) g.add_segment(v, v + cols, RoadClass::kLocal);
      }
    }
  }
  g.finalize();
  return g;
}

TEST(Betweenness, FlatPassMatchesReferencePass) {
  // The pass walks a flat copy of the adjacency and a hand-written heap;
  // the reference above walks neighbors() and std::push_heap/pop_heap. Any
  // change in settle order, summation order or tie handling shows up as a
  // differing bit on the tie-heavy inputs.
  for (const auto& [rows, cols, seed] :
       {std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>{6, 7, 3},
        {10, 12, 8},
        {12, 14, 5}}) {
    CityParams params;
    params.rows = rows;
    params.cols = cols;
    params.seed = seed;
    const RoadGraph city = build_city(params);
    Rng rng(seed);
    expect_matches_reference(city, tie_heavy_weights(city, rng), seed,
                             "city " + std::to_string(rows) + "x" +
                                 std::to_string(cols));
  }

  const RoadGraph grid = make_grid(9, 12);
  Rng grid_rng(61);
  expect_matches_reference(grid, tie_heavy_weights(grid, grid_rng), 61,
                           "tie-heavy grid");

  // The paper city under congestion-scaled travel times, as the service
  // layer refreshes it.
  CityParams paper;
  paper.rows = 18;
  paper.cols = 24;
  paper.seed = 2022;
  const RoadGraph paper_city = build_city(paper);
  Rng load_rng(67);
  std::vector<double> congested(paper_city.num_segments());
  for (SegmentId s = 0; s < paper_city.num_segments(); ++s) {
    const auto load = static_cast<double>(load_rng.uniform_int(0, 8));
    congested[s] = paper_city.segment(s).travel_time_s() * (1.0 + 0.05 * load);
  }
  expect_matches_reference(paper_city, congested, 67, "paper city");

  RoadGraph single;
  single.add_intersection(PointM{0.0, 0.0});
  single.finalize();
  expect_matches_reference(single, {}, 71, "single intersection");

  const RoadGraph split = two_components(4, 5);
  Rng split_rng(73);
  const std::vector<double> split_weights = tie_heavy_weights(split, split_rng);
  expect_matches_reference(split, split_weights, 73, "two components");

  // Updates confined to component A cannot reach a source in B: its
  // distances to both endpoints are infinite, so update_weights skips it
  // and the chunks holding only B's sources stay clean.
  const std::size_t half_segments = split.num_segments() / 2;
  IncrementalBetweenness inc(split, split_weights);
  std::vector<double> current = split_weights;
  std::vector<SegmentId> segments;
  std::vector<double> updated;
  for (SegmentId s = 0; s < half_segments; s += 3) {
    segments.push_back(s);
    updated.push_back(current[s] + 1.0);
    current[s] += 1.0;
  }
  const auto stats = inc.update_weights(segments, updated);
  EXPECT_GT(stats.chunks_recomputed, 0u);
  EXPECT_LE(stats.sources_affected, split.num_intersections() / 2);
  EXPECT_LT(stats.chunks_recomputed, inc.num_chunks());
  EXPECT_TRUE(
      same_bits(inc.centrality(), reference_betweenness(split, true, current)));
}

TEST(IncrementalBetweenness, RejectedBatchLeavesStateUntouched) {
  // update_weights checks the whole batch before it writes anything: a bad
  // entry after a valid one must not leave the valid one applied, or
  // weights() would no longer be the weights centrality() was computed on.
  const RoadGraph g = make_grid(5, 6);
  Rng rng(29);
  const std::vector<double> weights = tie_heavy_weights(g, rng);
  IncrementalBetweenness inc(g, weights);
  const std::vector<double> before = inc.centrality();
  const std::vector<double> scratch = segment_betweenness_weighted(g, weights);
  const double changed = weights[0] + 1.0;
  const auto past_end = static_cast<SegmentId>(g.num_segments());
  const std::vector<SegmentId> bad_segment = {0, past_end};
  const std::vector<double> bad_segment_weights = {changed, 2.0};
  EXPECT_THROW(inc.update_weights(bad_segment, bad_segment_weights),
               ContractViolation);
  EXPECT_TRUE(same_bits(inc.weights(), weights));
  EXPECT_TRUE(same_bits(inc.centrality(), before));
  EXPECT_TRUE(same_bits(inc.centrality(), scratch));

  const std::vector<SegmentId> segments = {0, 1};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const std::vector<double> bad_weights = {changed, bad};
    EXPECT_THROW(inc.update_weights(segments, bad_weights), ContractViolation);
    EXPECT_TRUE(same_bits(inc.weights(), weights));
    EXPECT_TRUE(same_bits(inc.centrality(), before));
    EXPECT_TRUE(same_bits(inc.centrality(), scratch));
  }

  // The valid entry on its own still applies.
  const SegmentId first = 0;
  inc.update_weights(std::span<const SegmentId>(&first, 1),
                     std::span<const double>(&changed, 1));
  std::vector<double> after = weights;
  after[0] = changed;
  EXPECT_TRUE(same_bits(inc.weights(), after));
  EXPECT_TRUE(
      same_bits(inc.centrality(), segment_betweenness_weighted(g, after)));
}

}  // namespace
}  // namespace avcp::roadnet
