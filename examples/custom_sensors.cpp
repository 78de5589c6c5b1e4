// Custom sensor suites: the library is not hard-coded to the paper's three
// sensors. This example builds a four-sensor lattice (adding ultrasonic),
// supplies a custom capability/privacy profile, and runs the data plane and
// the game over the resulting 16 decisions.
//
//   build/examples/custom_sensors
#include <cstdio>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "core/fds.h"
#include "core/game.h"
#include "core/sensor_model.h"
#include "perception/data_plane.h"
#include "sim/runner.h"

using namespace avcp;

int main() {
  // --- A 4-sensor decision lattice: 2^4 = 16 decisions. ------------------
  const core::DecisionLattice lattice(4);
  auto sensors = core::paper_sensors();
  sensors.push_back(core::SensorProfile{
      "ultrasonic",
      // Table-III style scores over the 11 perception factors.
      {1.0, 0.0, 1.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5, 1.0, 1.0},
      /*privacy_cost=*/0.05});
  const auto tables = core::make_decision_tables(lattice, sensors);

  std::printf("16-decision lattice (decision: raw utility / raw privacy):\n");
  const std::vector<std::string> names = {"cam", "lid", "rad", "uls"};
  for (core::DecisionId k = 0; k < lattice.num_decisions(); ++k) {
    std::printf("  %-24s %5.1f / %.2f\n", lattice.label(k, names).c_str(),
                tables.raw_utility[k], tables.raw_privacy[k]);
  }

  // --- The data plane honours the extended lattice. ----------------------
  Rng rng(11);
  const std::vector<double> sensor_privacy = {1.0, 0.5, 0.1, 0.05};
  const auto universe =
      perception::DataUniverse::synthetic(4, 12, sensor_privacy, rng);
  perception::EdgeServerDataPlane plane(lattice, universe);

  perception::FleetSoA vehicles;
  for (int v = 0; v < 40; ++v) {
    const auto decision = static_cast<core::DecisionId>(
        rng.uniform_int(0, static_cast<std::int64_t>(lattice.num_decisions()) - 1));
    perception::ItemSet collected;
    perception::ItemSet desired;
    for (perception::ItemId id = 0; id < universe.size(); ++id) {
      if (rng.bernoulli(0.35)) collected.push_back(id);
      if (rng.bernoulli(0.25)) desired.push_back(id);
    }
    if (desired.empty()) desired.push_back(0);
    vehicles.add(decision, perception::kClaimFollowsDecision, false, collected,
                 desired);
  }
  perception::RoundOutcome outcome;
  plane.run_round_into(vehicles.view(), 0.8, {}, {},
                       perception::DataPlaneMode::kPairwiseExact, outcome);
  std::printf("\ndata plane round at x = 0.8: mean utility %.3f, mean "
              "privacy cost %.3f, %zu items visible to an eavesdropper\n",
              outcome.mean_utility(), outcome.mean_privacy(),
              outcome.exposed_items);

  // --- And so does the game + FDS. ---------------------------------------
  core::GameConfig config;
  config.lattice = lattice;
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = 0.5;
  core::RegionSpec region;
  region.beta = 5.0;  // 16 decisions dilute the uniform-start pool
  region.gamma_self = 1.0;
  const core::MultiRegionGame game(std::move(config), {region});

  core::DesiredFields desired(1, lattice.num_decisions());
  desired.set_target(0, 0, Interval{0.85, 1.0});  // share all four sensors
  core::FdsOptions fds_options;
  fds_options.max_step = 0.15;
  core::FdsController controller(game, desired, fds_options);

  sim::RunOptions options;
  options.max_rounds = 500;
  options.record_trajectory = false;
  const auto run = sim::run_mean_field(game, controller, game.uniform_state(),
                                       {0.2}, &desired, options);
  std::printf("FDS on the 16-decision game: %s after %zu rounds "
              "(p(share-all) = %.1f%%)\n",
              run.converged ? "converged" : "did not converge", run.rounds,
              100.0 * run.final_state.p[0][0]);
  return run.converged ? 0 : 1;
}
