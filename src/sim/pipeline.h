// End-to-end trace-driven pipeline (paper §V-A/B preprocessing).
//
// city → traces → utility coefficients (BC or TD) → Algorithm-1 clustering
// → region graph with gamma frequencies → per-region game specs. The bench
// harnesses and the city_scale example consume the artifacts; nothing here
// runs the game itself (see runner.h).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/region_clustering.h"
#include "cluster/region_graph.h"
#include "core/game.h"
#include "roadnet/builders.h"
#include "spatial/voronoi.h"
#include "trace/density.h"
#include "trace/generator.h"

namespace avcp::sim {

/// Which road-segment utility coefficient drives the clustering.
enum class CoefficientKind : std::uint8_t {
  kBetweenness = 0,     // Eq. (2)
  kTrafficDensity = 1,  // Eq. (3), averaged over the trace span
};

struct PipelineConfig {
  roadnet::CityParams city{};
  trace::TraceParams traces{};
  std::size_t num_servers = 100;       // paper: 100 edge servers
  std::uint32_t num_regions = 20;      // paper: 20 regions
  CoefficientKind coefficient = CoefficientKind::kBetweenness;
  double td_window_s = 600.0;          // paper: 10-minute TD windows
  /// Region betas: normalised region-mean coefficients are mapped affinely
  /// into [beta_lo, beta_hi].
  double beta_lo = 0.8;
  double beta_hi = 2.0;
  /// Gammas are rescaled so the largest equals gamma_max.
  double gamma_max = 1.0;
  /// When false the generated trace is streamed through the coefficient and
  /// region-graph accumulators without ever being materialized (the latter
  /// keeps a 24-byte record per fix, half a GpsFix; artifacts.fixes stays
  /// empty). The default keeps the fixes for consumers that replay them
  /// (TraceDrivenSim, bench_fig10). Artifacts are bit-identical either way.
  bool keep_fixes = true;
};

struct PipelineArtifacts {
  roadnet::RoadGraph graph;
  std::vector<trace::GpsFix> fixes;
  /// Per-segment utility coefficient (BC or average TD).
  std::vector<double> coefficients;
  std::vector<PointM> server_positions;
  std::vector<spatial::ServerId> cell_of_segment;
  cluster::Clustering clustering;
  cluster::RegionGraph region_graph{1};
  /// Ready-to-use game region specs (beta_i, gamma_ii, neighbour gammas).
  std::vector<core::RegionSpec> region_specs;
};

/// Runs the full preprocessing pipeline.
PipelineArtifacts build_pipeline(const PipelineConfig& config);

/// Derives game region specs from a clustering + region graph, mapping
/// normalised region-mean coefficients into [beta_lo, beta_hi] (exposed
/// separately for tests and custom pipelines).
std::vector<core::RegionSpec> make_region_specs(
    const cluster::Clustering& clustering,
    const cluster::RegionGraph& region_graph,
    std::span<const double> coefficients, double beta_lo, double beta_hi);

}  // namespace avcp::sim
