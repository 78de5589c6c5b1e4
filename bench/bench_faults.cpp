// Robustness ablation: fault-injection sweep over V2X loss rate x
// edge-server outage duration on the measured plant, with the cloud's FDS
// controller wrapped in faults::DegradedController.
//
// Each sweep cell runs the same seeded plant under a FaultModel whose
// upload/delivery/report loss share one rate and whose scheduled outage
// takes every region down for `outage_duration` rounds mid-run. Reported
// per cell: whether FDS shaped the fleet before the outage, how many
// rounds it needed to re-converge after reports resumed, the realized
// utility/privacy degradation of the post-outage tail against the
// zero-fault baseline, and the loss counters. Output is a single JSON
// document on stdout (pipe to a file for plotting):
//
//   ./build/bench/bench_faults > faults.json
//   ./build/bench/bench_faults --smoke   # tiny CI configuration
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "faults/degraded_controller.h"
#include "faults/fault_model.h"
#include "scenario/scenario.h"
#include "sim/metrics.h"
#include "system/system.h"

using namespace avcp;

namespace {

std::size_t kRounds = 150;
// Mid-shaping: FDS is still driving the fleet toward the field when the
// servers go down, so rounds-to-reconverge measures real recovery work.
constexpr std::size_t kOutageStart = 4;
std::size_t kTailRounds = 30;  // tail window for degradation means

struct CellResult {
  double loss_rate = 0.0;
  std::size_t outage_duration = 0;
  std::size_t first_converged_round = 0;  // kNoReconvergence if never
  bool converged_before_outage = false;
  std::size_t rounds_to_reconverge = 0;
  bool reconverged = false;
  faults::FaultCounters plant_losses;
  std::size_t reports_lost = 0;
  /// Per-region splits of the plant losses (from RoundReport::Faults), so
  /// the sweep attributes degradation spatially.
  std::vector<std::size_t> uploads_lost_by_region;
  std::vector<std::size_t> deliveries_lost_by_region;
  std::vector<double> utility_tail;
  std::vector<double> privacy_tail;
};

CellResult run_cell(const core::MultiRegionGame& game, double loss_rate,
                    std::size_t outage_duration) {
  CellResult result;
  result.loss_rate = loss_rate;
  result.outage_duration = outage_duration;

  faults::FaultParams fp;
  fp.upload_loss_rate = loss_rate;
  fp.delivery_loss_rate = loss_rate;
  fp.report_loss_rate = loss_rate;
  fp.seed = 404;
  if (outage_duration > 0) {
    fp.outages.push_back(faults::OutageWindow{
        faults::OutageWindow::kAllRegions, kOutageStart, outage_duration});
  }
  const faults::FaultModel model(fp);

  system::SystemParams params;
  params.vehicles_per_region = 60;
  params.seed = 11;
  system::CooperativePerceptionSystem plant(game, params, &model);
  plant.init_from(game.uniform_state());

  const auto fields =
      scenario::floor_fields(game.num_regions(), game.num_decisions());
  core::FdsOptions fds_options;
  fds_options.max_step = 0.15;
  core::FdsController fds(game, fields, fds_options);
  faults::DegradedOptions degraded_options;
  degraded_options.max_step = fds_options.max_step;
  degraded_options.staleness_budget = 2;
  faults::DegradedController controller(fds, model, degraded_options);

  result.uploads_lost_by_region.assign(game.num_regions(), 0);
  result.deliveries_lost_by_region.assign(game.num_regions(), 0);
  std::vector<core::GameState> trajectory;
  trajectory.reserve(kRounds);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto report = plant.run_round(controller);
    for (core::RegionId i = 0; i < game.num_regions(); ++i) {
      result.uploads_lost_by_region[i] += report.faults.uploads_lost_by_region[i];
      result.deliveries_lost_by_region[i] +=
          report.faults.deliveries_lost_by_region[i];
    }
    trajectory.push_back(report.state);
    if (t + 1 == kOutageStart && fields.satisfied(report.state, 1e-9)) {
      result.converged_before_outage = true;
    }
    if (t + 1 > kRounds - kTailRounds) {
      double u = 0.0;
      double p = 0.0;
      for (core::RegionId i = 0; i < game.num_regions(); ++i) {
        u += report.mean_utility[i];
        p += report.mean_privacy[i];
      }
      result.utility_tail.push_back(u / static_cast<double>(game.num_regions()));
      result.privacy_tail.push_back(p / static_cast<double>(game.num_regions()));
    }
  }
  result.first_converged_round =
      sim::rounds_to_reconverge(trajectory, fields, 0, 1e-9);
  const std::size_t resume = kOutageStart + outage_duration;
  const std::size_t rounds =
      sim::rounds_to_reconverge(trajectory, fields, resume, 1e-9);
  result.reconverged = rounds != sim::kNoReconvergence;
  result.rounds_to_reconverge = result.reconverged ? rounds : 0;
  result.plant_losses = plant.fault_counters();
  result.reports_lost = controller.counters().reports_lost;
  return result;
}

void print_size_array(const char* key, const std::vector<std::size_t>& values,
                      const char* suffix) {
  std::printf("     \"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%zu%s", values[i], i + 1 < values.size() ? ", " : "");
  }
  std::printf("]%s\n", suffix);
}

void print_cell_json(const CellResult& cell, const CellResult& baseline,
                     bool last) {
  const auto utility =
      sim::degradation(baseline.utility_tail, cell.utility_tail);
  const auto privacy =
      sim::degradation(baseline.privacy_tail, cell.privacy_tail);
  std::printf(
      "    {\"loss_rate\": %.2f, \"outage_duration\": %zu,\n"
      "     \"first_converged_round\": %zu,\n"
      "     \"converged_before_outage\": %s, \"reconverged\": %s,\n"
      "     \"rounds_to_reconverge\": %zu,\n"
      "     \"uploads_lost\": %zu, \"deliveries_lost\": %zu,\n",
      cell.loss_rate, cell.outage_duration, cell.first_converged_round,
      cell.converged_before_outage ? "true" : "false",
      cell.reconverged ? "true" : "false", cell.rounds_to_reconverge,
      cell.plant_losses.uploads_lost, cell.plant_losses.deliveries_lost);
  print_size_array("uploads_lost_by_region", cell.uploads_lost_by_region, ",");
  print_size_array("deliveries_lost_by_region", cell.deliveries_lost_by_region,
                   ",");
  std::printf(
      "     \"region_outages\": %zu, \"reports_lost\": %zu,\n"
      "     \"mean_utility_tail\": %.4f, \"utility_drop_rel\": %.4f,\n"
      "     \"mean_privacy_tail\": %.4f, \"privacy_drop_rel\": %.4f}%s\n",
      cell.plant_losses.region_outages, cell.reports_lost, utility.mean_faulty,
      utility.relative_drop, privacy.mean_faulty, privacy.relative_drop,
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // The shared scenario plant: a 3-region beta-4.0 chain whose
  // all-sensors-dominant desired field is attainable on the measured plant.
  const auto game = scenario::chain_game(3, 4.0);
  std::vector<double> loss_rates = {0.0, 0.1, 0.3};
  std::vector<std::size_t> durations = {0, 10, 25};
  if (smoke) {
    kRounds = 40;
    kTailRounds = 10;
    loss_rates = {0.0, 0.3};
    durations = {0, 10};
  }

  const CellResult baseline = run_cell(game, 0.0, 0);

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_faults\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"rounds\": %zu,\n", kRounds);
  std::printf("  \"outage_start\": %zu,\n", kOutageStart);
  std::printf("  \"tail_rounds\": %zu,\n", kTailRounds);
  std::printf("  \"sweep\": [\n");
  const std::size_t cells = loss_rates.size() * durations.size();
  std::size_t emitted = 0;
  for (const double loss : loss_rates) {
    for (const std::size_t duration : durations) {
      const CellResult cell = (loss == 0.0 && duration == 0)
                                  ? baseline
                                  : run_cell(game, loss, duration);
      print_cell_json(cell, baseline, ++emitted == cells);
    }
  }
  std::printf("  ]\n}\n");
  return bench::finish_json_output();
}
