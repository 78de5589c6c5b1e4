#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>

#include "common/stats.h"
#include "test_support.h"

namespace avcp::sim {
namespace {

using core::testing::fnv1a_word;

PipelineConfig small_config(CoefficientKind kind) {
  PipelineConfig config;
  config.city.rows = 8;
  config.city.cols = 10;
  config.city.seed = 21;
  config.traces.num_vehicles = 60;
  config.traces.duration_s = 1800.0;
  config.traces.seed = 22;
  config.num_servers = 9;
  config.num_regions = 5;
  config.coefficient = kind;
  return config;
}

/// The paper-scale configuration every perfbench set-up builds: the
/// 18 x 24 city, 400 vehicles over 3 h, 100 servers and 20 regions,
/// streamed without keeping the fixes.
PipelineConfig paper_config(CoefficientKind kind) {
  PipelineConfig config;
  config.city.rows = 18;
  config.city.cols = 24;
  config.city.seed = 2022;
  config.traces.num_vehicles = 400;
  config.traces.duration_s = 3 * 3600.0;
  config.traces.seed = 2023;
  config.num_servers = 100;
  config.num_regions = 20;
  config.coefficient = kind;
  config.td_window_s = 600.0;
  config.beta_lo = 2.0;
  config.beta_hi = 3.5;
  config.keep_fixes = false;
  return config;
}

class PipelineFixture : public ::testing::TestWithParam<CoefficientKind> {};

TEST_P(PipelineFixture, ArtifactSizesAreConsistent) {
  const auto artifacts = build_pipeline(small_config(GetParam()));
  const std::size_t m = artifacts.graph.num_segments();
  EXPECT_GT(m, 0u);
  EXPECT_EQ(artifacts.coefficients.size(), m);
  EXPECT_EQ(artifacts.cell_of_segment.size(), m);
  EXPECT_EQ(artifacts.clustering.region_of.size(), m);
  EXPECT_EQ(artifacts.clustering.num_regions(), 5u);
  EXPECT_EQ(artifacts.region_graph.num_regions(), 5u);
  EXPECT_EQ(artifacts.region_specs.size(), 5u);
  EXPECT_EQ(artifacts.server_positions.size(), 9u);
  EXPECT_FALSE(artifacts.fixes.empty());
}

TEST_P(PipelineFixture, BetasWithinConfiguredRange) {
  const auto config = small_config(GetParam());
  const auto artifacts = build_pipeline(config);
  for (const auto& spec : artifacts.region_specs) {
    EXPECT_GE(spec.beta, config.beta_lo - 1e-9);
    EXPECT_LE(spec.beta, config.beta_hi + 1e-9);
  }
  // The min and max of the range are attained (min-max normalisation).
  double lo = 1e9;
  double hi = -1e9;
  for (const auto& spec : artifacts.region_specs) {
    lo = std::min(lo, spec.beta);
    hi = std::max(hi, spec.beta);
  }
  EXPECT_NEAR(lo, config.beta_lo, 1e-9);
  EXPECT_NEAR(hi, config.beta_hi, 1e-9);
}

TEST_P(PipelineFixture, GammasNonNegativeAndRescaled) {
  const auto config = small_config(GetParam());
  const auto artifacts = build_pipeline(config);
  double max_gamma = 0.0;
  for (cluster::RegionId i = 0; i < 5; ++i) {
    for (cluster::RegionId j = 0; j < 5; ++j) {
      EXPECT_GE(artifacts.region_graph.gamma(i, j), 0.0);
      max_gamma = std::max(max_gamma, artifacts.region_graph.gamma(i, j));
    }
  }
  EXPECT_NEAR(max_gamma, config.gamma_max, 1e-9);
}

TEST_P(PipelineFixture, SpecsMirrorRegionGraph) {
  const auto artifacts = build_pipeline(small_config(GetParam()));
  for (cluster::RegionId i = 0; i < 5; ++i) {
    const auto& spec = artifacts.region_specs[i];
    EXPECT_DOUBLE_EQ(spec.gamma_self, artifacts.region_graph.gamma(i, i));
    EXPECT_EQ(spec.neighbors.size(),
              artifacts.region_graph.neighbors(i).size());
    for (const auto& [j, gamma] : spec.neighbors) {
      EXPECT_DOUBLE_EQ(gamma, artifacts.region_graph.gamma(j, i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothCoefficients, PipelineFixture,
                         ::testing::Values(CoefficientKind::kBetweenness,
                                           CoefficientKind::kTrafficDensity));

TEST(Pipeline, TdCoefficientsReflectTraffic) {
  const auto artifacts =
      build_pipeline(small_config(CoefficientKind::kTrafficDensity));
  // Some segments saw traffic.
  double total = 0.0;
  for (const double c : artifacts.coefficients) total += c;
  EXPECT_GT(total, 0.0);
}

TEST(Pipeline, StreamingIngestionMatchesMaterializedTrace) {
  // keep_fixes=false streams the generated trace through the TD and gamma
  // accumulators without materializing it; every artifact must be
  // bit-identical to the kept-fixes build.
  auto config = small_config(CoefficientKind::kTrafficDensity);
  const auto kept = build_pipeline(config);
  config.keep_fixes = false;
  const auto streamed = build_pipeline(config);

  EXPECT_FALSE(kept.fixes.empty());
  EXPECT_TRUE(streamed.fixes.empty());
  EXPECT_EQ(streamed.coefficients, kept.coefficients);
  EXPECT_EQ(streamed.clustering.region_of, kept.clustering.region_of);
  ASSERT_EQ(streamed.region_graph.num_regions(),
            kept.region_graph.num_regions());
  for (cluster::RegionId i = 0; i < kept.region_graph.num_regions(); ++i) {
    for (cluster::RegionId j = 0; j < kept.region_graph.num_regions(); ++j) {
      EXPECT_EQ(streamed.region_graph.gamma(i, j),
                kept.region_graph.gamma(i, j));
    }
  }
  ASSERT_EQ(streamed.region_specs.size(), kept.region_specs.size());
  for (std::size_t i = 0; i < kept.region_specs.size(); ++i) {
    EXPECT_EQ(streamed.region_specs[i].beta, kept.region_specs[i].beta);
    EXPECT_EQ(streamed.region_specs[i].gamma_self,
              kept.region_specs[i].gamma_self);
    EXPECT_EQ(streamed.region_specs[i].neighbors,
              kept.region_specs[i].neighbors);
  }
}

std::uint64_t fnv1a_doubles(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

/// FNV-1a over the bit patterns of the coefficients, the full gamma matrix
/// and every region spec (beta, gamma_self, neighbour ids and gammas).
std::uint64_t artifact_hash(const PipelineArtifacts& a) {
  std::uint64_t h = fnv1a_doubles(core::testing::kFnv1aBasis, a.coefficients);
  const std::size_t r = a.region_graph.num_regions();
  for (cluster::RegionId i = 0; i < r; ++i) {
    for (cluster::RegionId j = 0; j < r; ++j) {
      h = fnv1a_word(
          h, std::bit_cast<std::uint64_t>(a.region_graph.gamma(i, j)));
    }
  }
  for (const core::RegionSpec& spec : a.region_specs) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(spec.beta));
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(spec.gamma_self));
    for (const auto& [j, gamma] : spec.neighbors) {
      h = fnv1a_word(h, j);
      h = fnv1a_word(h, std::bit_cast<std::uint64_t>(gamma));
    }
  }
  return h;
}

TEST(Pipeline, ArtifactBitsArePinnedAcrossCommits) {
  // The other pipeline tests check shapes, ranges and kept-versus-streamed
  // equality within one build, so none of them notices a change in the
  // trace, the coefficients or the order gamma is summed in. Update these
  // only with a deliberate change to the pipeline's arithmetic. The paper
  // rows pin the configuration every perfbench set-up builds.
  EXPECT_EQ(artifact_hash(build_pipeline(small_config(
                CoefficientKind::kBetweenness))),
            0x326fb2e09b7af9c8ULL)
      << "betweenness coefficients";
  EXPECT_EQ(artifact_hash(build_pipeline(small_config(
                CoefficientKind::kTrafficDensity))),
            0x205252897d6be965ULL)
      << "traffic-density coefficients";
  EXPECT_EQ(artifact_hash(build_pipeline(paper_config(
                CoefficientKind::kBetweenness))),
            0x66c499008cd1eafcULL)
      << "paper city, betweenness coefficients";
  EXPECT_EQ(artifact_hash(build_pipeline(paper_config(
                CoefficientKind::kTrafficDensity))),
            0x9a66988bd5df4865ULL)
      << "paper city, traffic-density coefficients";
}

TEST(Pipeline, MakeRegionSpecsMapsMeansAffinely) {
  // Two regions with known coefficient means 0 and 10 map to beta_lo and
  // beta_hi exactly.
  cluster::Clustering clustering;
  clustering.region_of = {0, 1};
  clustering.members = {{0}, {1}};
  clustering.seeds = {0, 1};
  cluster::RegionGraph graph(2);
  graph.accumulate(0, 1, 1.0);
  graph.finalize(1.0);
  const std::vector<double> coeffs = {0.0, 10.0};
  const auto specs = make_region_specs(clustering, graph, coeffs, 0.5, 2.0);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_NEAR(specs[0].beta, 0.5, 1e-12);
  EXPECT_NEAR(specs[1].beta, 2.0, 1e-12);
  ASSERT_EQ(specs[0].neighbors.size(), 1u);
  EXPECT_EQ(specs[0].neighbors[0].first, 1u);
}

}  // namespace
}  // namespace avcp::sim
