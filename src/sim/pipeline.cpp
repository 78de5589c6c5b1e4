#include "sim/pipeline.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/stats.h"
#include "roadnet/betweenness.h"

namespace avcp::sim {

std::vector<core::RegionSpec> make_region_specs(
    const cluster::Clustering& clustering,
    const cluster::RegionGraph& region_graph,
    std::span<const double> coefficients, double beta_lo, double beta_hi) {
  AVCP_EXPECT(beta_hi >= beta_lo);
  AVCP_EXPECT(beta_lo >= 0.0);
  AVCP_EXPECT(clustering.num_regions() == region_graph.num_regions());

  const auto means = clustering.region_means(coefficients);
  const auto normalized = minmax_normalize(means);

  std::vector<core::RegionSpec> specs(clustering.num_regions());
  for (cluster::RegionId i = 0; i < specs.size(); ++i) {
    specs[i].beta = beta_lo + (beta_hi - beta_lo) * normalized[i];
    specs[i].gamma_self = region_graph.gamma(i, i);
    for (const cluster::RegionId j : region_graph.neighbors(i)) {
      specs[i].neighbors.emplace_back(j, region_graph.gamma(j, i));
    }
  }
  return specs;
}

PipelineArtifacts build_pipeline(const PipelineConfig& config) {
  AVCP_EXPECT(config.num_servers >= 1);
  AVCP_EXPECT(config.num_regions >= 1);

  PipelineArtifacts artifacts;
  artifacts.graph = roadnet::build_city(config.city);
  const auto& graph = artifacts.graph;

  // Traces (shared by TD coefficients and gamma estimation) are streamed
  // from the generator through the accumulators; fixes are only
  // materialized when the caller wants them (config.keep_fixes).
  const trace::TraceGenerator generator(graph, config.traces);

  // Per-segment utility coefficient.
  if (config.coefficient == CoefficientKind::kBetweenness) {
    artifacts.coefficients = roadnet::segment_betweenness(graph);
    if (config.keep_fixes) {
      generator.generate(
          [&](const trace::GpsFix& fix) { artifacts.fixes.push_back(fix); });
    }
  } else {
    trace::TrafficDensityAccumulator td(graph.num_segments(),
                                        config.td_window_s,
                                        config.traces.duration_s);
    generator.generate([&](const trace::GpsFix& fix) {
      td.add(fix);
      if (config.keep_fixes) artifacts.fixes.push_back(fix);
    });
    artifacts.coefficients = td.average_density();
  }

  // Edge servers + Voronoi cells.
  std::vector<PointM> nodes;
  nodes.reserve(graph.num_intersections());
  for (std::size_t v = 0; v < graph.num_intersections(); ++v) {
    nodes.push_back(graph.intersection(static_cast<roadnet::NodeId>(v)));
  }
  const spatial::BBoxM area = spatial::BBoxM::around(nodes);
  artifacts.server_positions = spatial::deploy_grid(area, config.num_servers);
  const spatial::VoronoiPartition voronoi(artifacts.server_positions);
  artifacts.cell_of_segment = voronoi.assign_segments(graph);

  // Algorithm-1 clustering on the chosen coefficient.
  artifacts.clustering = cluster::cluster_segments(
      graph, artifacts.coefficients,
      cluster::ClusteringOptions{config.num_regions});

  // Region graph with gamma frequencies from vehicle co-presence.
  cluster::RegionGraphInputs inputs;
  inputs.region_of_segment = artifacts.clustering.region_of;
  inputs.cell_of_segment = artifacts.cell_of_segment;
  inputs.num_regions = config.num_regions;
  inputs.num_cells = config.num_servers;
  inputs.window_s = config.traces.fix_interval_s;
  inputs.duration_s = config.traces.duration_s;
  cluster::RegionGraphAccumulator gamma_accumulator(inputs);
  if (config.keep_fixes) {
    for (const trace::GpsFix& fix : artifacts.fixes) gamma_accumulator.add(fix);
  } else {
    // Second deterministic generator pass: the graph needs the clustering
    // (computed above), and without kept fixes regenerating feeds it
    // without materializing the trace.
    generator.generate(
        [&](const trace::GpsFix& fix) { gamma_accumulator.add(fix); });
  }
  artifacts.region_graph = gamma_accumulator.build();
  artifacts.region_graph.rescale_max(config.gamma_max);

  artifacts.region_specs =
      make_region_specs(artifacts.clustering, artifacts.region_graph,
                        artifacts.coefficients, config.beta_lo, config.beta_hi);
  return artifacts;
}

}  // namespace avcp::sim
