// Ablations over the design choices DESIGN.md calls out:
//   A1 — FDS step bound Lambda (Eq. 13) vs convergence time,
//   A2 — interior margin (our robustness addition to Algorithm 2),
//   A3 — strict vs non-strict lattice access rule (Eq. (1) vs Eq. (4)),
//   A4 — growth-factor floor (pure Eq. (5) vs bounded attrition),
//   A5 — free-riders on the zero-churn service: a frozen cohort that
//        never revises (see bench_faults for the full loss-rate x outage
//        sweep on the measured plant).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "system/system.h"
#include "core/equilibrium.h"
#include "core/sensor_model.h"
#include "perception/scheduler.h"
#include "roadnet/builders.h"
#include "service/service_engine.h"
#include "sim/time_varying.h"
#include "trace/density.h"

using namespace avcp;

namespace {

sim::PipelineArtifacts small_artifacts() {
  return sim::build_pipeline(
      bench::paper_config(sim::CoefficientKind::kBetweenness, /*small=*/true));
}

core::FdsOptions base_opts() {
  auto opts = bench::bench_fds_options();
  opts.max_step = 0.2;
  return opts;
}

std::size_t fds_rounds(const core::MultiRegionGame& game,
                       const core::DesiredFields& fields,
                       const core::FdsOptions& opts, bool* converged) {
  core::FdsController controller(game, fields, opts);
  sim::RunOptions options;
  options.max_rounds = 4000;
  options.record_trajectory = false;
  const auto run = sim::run_mean_field(
      game, controller, game.uniform_state(),
      std::vector<double>(game.num_regions(), 0.2), &fields, options);
  *converged = run.converged;
  return run.rounds;
}

}  // namespace

int main() {
  const auto artifacts = small_artifacts();
  const auto game = bench::make_paper_game(artifacts);
  const auto fields =
      bench::attainable_fields(game, game.uniform_state(), 0.75, 0.03);

  bench::print_header("A1: FDS convergence vs step bound Lambda (Eq. 13)");
  std::printf("%-10s %12s %10s\n", "Lambda", "rounds", "converged");
  bench::print_rule();
  for (const double lambda : {0.02, 0.05, 0.1, 0.2, 0.5}) {
    auto opts = base_opts();
    opts.max_step = lambda;
    bool ok = false;
    const auto rounds = fds_rounds(game, fields, opts, &ok);
    std::printf("%-10.2f %12zu %10s\n", lambda, rounds, ok ? "yes" : "no");
  }

  bench::print_header("A2: FDS convergence vs interior margin");
  std::printf("%-10s %12s %10s   (0 = Algorithm 2's boundary-seeking)\n",
              "margin", "rounds", "converged");
  bench::print_rule();
  for (const double margin : {0.0, 0.05, 0.1, 0.2}) {
    auto opts = base_opts();
    opts.interior_margin = margin;
    bool ok = false;
    const auto rounds = fds_rounds(game, fields, opts, &ok);
    std::printf("%-10.2f %12zu %10s\n", margin, rounds, ok ? "yes" : "no");
  }

  bench::print_header(
      "A3: access rule — Eq. (4) subset-or-equal vs Eq. (1) strict subset");
  for (const auto access : {core::AccessRule::kSubsetOrEqual,
                            core::AccessRule::kStrictSubset}) {
    core::GameConfig config;
    config.lattice = core::DecisionLattice(3);
    const auto tables = core::paper_decision_tables(config.lattice);
    config.utility = tables.utility;
    config.privacy = tables.privacy;
    config.step_size = 0.5;
    config.access = access;
    const core::MultiRegionGame variant(std::move(config),
                                        artifacts.region_specs);
    core::FixedRatioController controller(1.0);
    sim::RunOptions options;
    options.max_rounds = 1500;
    options.record_trajectory = false;
    const auto run = sim::run_mean_field(
        variant, controller, variant.uniform_state(),
        std::vector<double>(variant.num_regions(), 1.0), nullptr, options);
    // Average share of rich-sharing decisions (P1..P4) across regions.
    double rich = 0.0;
    for (core::RegionId i = 0; i < variant.num_regions(); ++i) {
      for (core::DecisionId k = 0; k < 4; ++k) {
        rich += run.final_state.p[i][k];
      }
    }
    rich /= static_cast<double>(variant.num_regions());
    std::printf("  %-16s rich-sharing share at x=1.0: %5.1f%%\n",
                access == core::AccessRule::kSubsetOrEqual ? "subset-or-equal"
                                                           : "strict-subset",
                100.0 * rich);
  }
  std::printf("(strict access removes the own-group pool, weakening the "
              "sharing coalition)\n");

  bench::print_header("A4: growth-factor floor — pure Eq. (5) vs bounded");
  for (const double floor : {0.0, 0.01, 0.1}) {
    core::GameConfig config;
    config.lattice = core::DecisionLattice(3);
    const auto tables = core::paper_decision_tables(config.lattice);
    config.utility = tables.utility;
    config.privacy = tables.privacy;
    config.step_size = 0.5;
    config.min_growth_factor = floor;
    const core::MultiRegionGame variant(std::move(config),
                                        artifacts.region_specs);
    const auto variant_fields =
        bench::attainable_fields(variant, variant.uniform_state(), 0.75, 0.03);
    bool ok = false;
    const auto rounds =
        fds_rounds(variant, variant_fields, base_opts(), &ok);
    std::printf("  floor %-6.2f rounds %6zu converged %s\n", floor, rounds,
                ok ? "yes" : "no");
  }

  bench::print_header(
      "A5: free-riders on the zero-churn service — frozen vehicles never "
      "revise");
  std::printf("%-12s %16s\n", "free-riders", "p(P8) after 250 epochs at x=0");
  bench::print_rule();
  // One region on a 2x2 grid: with churn off and congestion_alpha 0 the
  // clustering never moves, so each epoch is one paper round.
  const roadnet::RoadGraph grid = roadnet::make_grid(2, 2);
  for (const double frac : {0.0, 0.25, 0.5, 0.75}) {
    core::GameConfig config;
    config.lattice = core::DecisionLattice(3);
    const auto tables = core::paper_decision_tables(config.lattice);
    config.utility = tables.utility;
    config.privacy = tables.privacy;
    config.step_size = 0.5;
    const core::MultiRegionGame single(std::move(config),
                                       {core::RegionSpec{}});
    // Free-riders (a hash-designated share `frac` of the fleet) hold their
    // decision and never revise.
    service::ServiceParams params;
    params.vehicles_per_region = 2000;
    params.imitation_scale = 0.5;
    params.seed = 7;
    params.attacker_fraction = frac;
    core::FixedRatioController no_sharing(0.0);
    service::ServiceEngine svc(single, no_sharing, &grid, params);
    svc.init(single.uniform_state(), {0.0});
    for (int t = 0; t < 250; ++t) svc.run_epoch();
    std::size_t share_nothing = 0;
    for (const service::VehicleRecord& rec : svc.fleet()) {
      if (rec.decision == 7) ++share_nothing;
    }
    std::printf("%-12.2f %16.3f\n", frac,
                static_cast<double>(share_nothing) /
                    static_cast<double>(svc.fleet().size()));
  }
  std::printf("(the honest population converges to the no-share optimum; "
              "frozen vehicles cap it)\n");

  bench::print_header(
      "A6: utility-coefficient noise vs convergence time (paper future work)");
  // The paper's §VII asks how approximation errors in the region utility
  // coefficients beta_i affect convergence. Perturb each beta
  // multiplicatively and re-run FDS against the *unperturbed* desired field.
  std::printf("%-12s %12s %10s\n", "noise (+-)", "rounds", "converged");
  bench::print_rule();
  for (const double noise : {0.0, 0.1, 0.25, 0.5}) {
    Rng rng(42);
    auto specs = artifacts.region_specs;
    for (auto& spec : specs) {
      spec.beta *= 1.0 + rng.uniform(-noise, noise);
    }
    core::GameConfig config;
    config.lattice = core::DecisionLattice(3);
    const auto tables = core::paper_decision_tables(config.lattice);
    config.utility = tables.utility;
    config.privacy = tables.privacy;
    config.step_size = 0.5;
    const core::MultiRegionGame noisy(std::move(config), std::move(specs));
    bool ok = false;
    const auto rounds = fds_rounds(noisy, fields, base_opts(), &ok);
    std::printf("%-12.2f %12zu %10s\n", noise, rounds, ok ? "yes" : "no");
  }
  std::printf("(the desired field was derived from the true betas; mild "
              "coefficient error\n is absorbed, large error can make the "
              "field unattainable)\n");

  bench::print_header("A7: FDS sweep order — Jacobi (paper) vs Gauss-Seidel");
  for (const auto sweep : {core::FdsOptions::Sweep::kJacobi,
                           core::FdsOptions::Sweep::kGaussSeidel}) {
    auto opts = base_opts();
    opts.sweep = sweep;
    bool ok = false;
    const auto rounds = fds_rounds(game, fields, opts, &ok);
    std::printf("  %-14s rounds %6zu converged %s\n",
                sweep == core::FdsOptions::Sweep::kJacobi ? "Jacobi"
                                                          : "Gauss-Seidel",
                rounds, ok ? "yes" : "no");
  }

  bench::print_header("A8: equilibrium map x -> long-run state (one region)");
  // Where Fig. 10's two fixed ratios sit inside the full spectrum: the
  // long-run limit from the uniform state as the constant ratio sweeps 0..1.
  {
    core::GameConfig config;
    config.lattice = core::DecisionLattice(3);
    const auto tables = core::paper_decision_tables(config.lattice);
    config.utility = tables.utility;
    config.privacy = tables.privacy;
    config.step_size = 0.5;
    core::RegionSpec spec;
    spec.beta = 3.0;
    spec.gamma_self = 1.0;
    const core::MultiRegionGame single(std::move(config), {spec});
    const auto map = core::equilibrium_map(single, 11);
    std::printf("%-6s %-22s %s\n", "x", "dominant decision",
                "expected shared sensors");
    bench::print_rule();
    for (const auto& entry : map) {
      core::DecisionId top = 0;
      for (core::DecisionId k = 1; k < 8; ++k) {
        if (entry.limit.p[0][k] > entry.limit.p[0][top]) top = k;
      }
      double richness = 0.0;
      for (core::DecisionId k = 0; k < 8; ++k) {
        richness += entry.limit.p[0][k] *
                    static_cast<double>(single.lattice().cardinality(k));
      }
      std::printf("%-6.1f %-22s %.2f\n", entry.x,
                  single.lattice().label(top).c_str(), richness);
    }
    std::printf("(monotone enrichment of the sustained sharing level in x)\n");
  }

  bench::print_header(
      "A9: Property 3.1(d) disjointness — measured utility saturation");
  // The analytic fitness assumes shared data from different vehicles is
  // pairwise disjoint. On the measured plant, overlapping collections
  // inflate coverage (redundant observations), so the same ratio yields a
  // higher mean utility the denser the overlap.
  {
    core::GameConfig config;
    config.lattice = core::DecisionLattice(3);
    const auto tables = core::paper_decision_tables(config.lattice);
    config.utility = tables.utility;
    config.privacy = tables.privacy;
    config.step_size = 0.5;
    core::RegionSpec spec;
    spec.beta = 2.0;
    spec.gamma_self = 1.0;
    const core::MultiRegionGame single(std::move(config), {spec});
    std::printf("%-34s %14s\n", "collection model", "mean utility @ x=0.3");
    bench::print_rule();
    for (const bool disjoint : {true, false}) {
      system::SystemParams params;
      params.vehicles_per_region = 150;
      params.disjoint_collections = disjoint;
      params.collect_fraction = 0.05;
      params.revision_rate = 0.0;
      params.seed = 33;
      system::CooperativePerceptionSystem plant(single, params);
      std::vector<double> all_p1(8, 0.0);
      all_p1[0] = 1.0;
      plant.init_from(single.broadcast_state(all_p1));
      core::FixedRatioController controller(0.3);
      double total = 0.0;
      for (int t = 0; t < 10; ++t) {
        total += plant.run_round(controller).mean_utility[0];
      }
      std::printf("%-34s %14.3f\n",
                  disjoint ? "disjoint (paper assumption)" : "overlapping",
                  total / 10.0);
    }
  }

  bench::print_header(
      "A10: peak/off-peak beta schedule — re-convergence per epoch "
      "(paper future work)");
  {
    // Epoch betas from the trace's own TD windows; the desired field is
    // re-derived per epoch and FDS re-shapes the persistent population.
    const auto config =
        bench::paper_config(sim::CoefficientKind::kTrafficDensity,
                            /*small=*/true);
    trace::TrafficDensityAccumulator density(
        artifacts.graph.num_segments(), config.td_window_s,
        config.traces.duration_s);
    for (const trace::GpsFix& fix : artifacts.fixes) density.add(fix);
    const auto schedule = sim::beta_schedule_from_density(
        density, artifacts.clustering, /*windows_per_epoch=*/4,
        /*beta_lo=*/1.5, /*beta_hi=*/3.5, /*rounds_per_epoch=*/400);

    const sim::FieldFactory factory =
        [](const core::MultiRegionGame& epoch_game,
           const core::GameState& state) {
          core::GameState eq = state;
          const std::vector<double> x_ref(epoch_game.num_regions(), 0.75);
          for (int t = 0; t < 3000; ++t) epoch_game.replicator_step(eq, x_ref);
          core::DesiredFields fields(epoch_game.num_regions(),
                                     epoch_game.num_decisions());
          for (core::RegionId i = 0; i < epoch_game.num_regions(); ++i) {
            for (core::DecisionId k = 0; k < epoch_game.num_decisions(); ++k) {
              fields.set_target(i, k,
                                Interval{std::max(0.0, eq.p[i][k] - 0.05),
                                         std::min(1.0, eq.p[i][k] + 0.05)});
            }
          }
          return fields;
        };
    sim::TimeVaryingOptions options;
    options.fds = base_opts();
    options.reseed_mix = 0.15;
    const auto outcomes = sim::run_time_varying(
        game, schedule, factory, game.uniform_state(),
        std::vector<double>(game.num_regions(), 0.3), options);
    std::printf("%-8s %12s %12s %14s\n", "epoch", "mean beta", "converged",
                "rounds");
    bench::print_rule();
    for (std::size_t e = 0; e < outcomes.size(); ++e) {
      double mean_beta = 0.0;
      for (const double b : schedule.epochs[e]) mean_beta += b;
      mean_beta /= static_cast<double>(schedule.epochs[e].size());
      std::printf("%-8zu %12.2f %12s %14zu\n", e, mean_beta,
                  outcomes[e].converged ? "yes" : "no",
                  outcomes[e].rounds_to_converge);
    }
    std::printf("(the controller re-shapes the persistent population after "
                "every coefficient switch)\n");
  }

  bench::print_header(
      "A11: bounded connection windows — delivered utility vs budget "
      "(paper future work)");
  // Vehicles connect to the edge server only briefly; the scheduler picks
  // which admissible desired items to push. Utility delivered per receiver
  // as the per-vehicle budget grows (concave: heaviest items go first).
  {
    Rng rng(55);
    const core::DecisionLattice lattice(3);
    const std::vector<double> sensor_privacy = {1.0, 0.5, 0.1};
    const auto universe =
        perception::DataUniverse::synthetic(3, 40, sensor_privacy, rng);
    const perception::DistributionScheduler scheduler(lattice, universe);

    // 30 senders with random decisions/items; 30 receivers with random
    // desires.
    std::vector<perception::SenderUpload> uploads(30);
    for (auto& upload : uploads) {
      upload.decision = static_cast<core::DecisionId>(rng.uniform_int(0, 7));
      for (perception::ItemId id = 0; id < universe.size(); ++id) {
        if (rng.bernoulli(0.2) &&
            lattice.shares(upload.decision, universe.item(id).sensor)) {
          upload.items.push_back(id);
        }
      }
    }
    std::vector<perception::DistributionRequest> receivers(30);
    for (auto& receiver : receivers) {
      receiver.decision = static_cast<core::DecisionId>(rng.uniform_int(0, 7));
      for (perception::ItemId id = 0; id < universe.size(); ++id) {
        if (rng.bernoulli(0.3)) receiver.desired.push_back(id);
      }
    }

    // Unlimited reference.
    const auto unlimited = scheduler.plan(uploads, receivers);
    std::printf("%-14s %18s %12s\n", "budget/vehicle", "delivered utility",
                "of unlimited");
    bench::print_rule();
    for (const std::size_t budget : {1u, 2u, 4u, 8u, 16u, 32u}) {
      for (auto& receiver : receivers) receiver.budget_items = budget;
      const auto plan = scheduler.plan(uploads, receivers);
      std::printf("%-14zu %18.1f %11.0f%%\n", budget,
                  plan.total_utility_weight,
                  100.0 * plan.total_utility_weight /
                      std::max(1e-9, unlimited.total_utility_weight));
    }
    std::printf("(concave curve: the weight-greedy schedule front-loads the "
                "most valuable items)\n");
  }
  return 0;
}
