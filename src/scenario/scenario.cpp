#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/contracts.h"
#include "core/fds.h"
#include "core/sensor_model.h"
#include "faults/fault_model.h"
#include "roadnet/builders.h"
#include "service/service_engine.h"
#include "system/system.h"

namespace avcp::scenario {

namespace {

constexpr double kBaseFloor = 0.7;
constexpr double kFloorSlope = 0.6;
constexpr std::size_t kSensors = 3;  // lattice 2^3 = 8 decisions

}  // namespace

core::MultiRegionGame chain_game(std::size_t regions, double beta) {
  core::GameConfig config;
  config.lattice = core::DecisionLattice(kSensors);
  const auto tables = core::paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = 0.5;
  std::vector<core::RegionSpec> specs(regions);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].beta = beta;
    specs[i].gamma_self = 1.0;
    if (i > 0) {
      specs[i].neighbors.emplace_back(static_cast<core::RegionId>(i - 1), 0.3);
    }
    if (i + 1 < specs.size()) {
      specs[i].neighbors.emplace_back(static_cast<core::RegionId>(i + 1), 0.3);
    }
  }
  return core::MultiRegionGame(std::move(config), std::move(specs));
}

core::DesiredFields floor_fields(std::size_t regions, std::size_t decisions) {
  core::DesiredFields fields(regions, decisions);
  for (core::RegionId i = 0; i < regions; ++i) {
    fields.set_target(i, 0, Interval{kBaseFloor, 1.0});
  }
  return fields;
}

namespace {

/// The attack arm `with_attack` wires: null for an honest fleet (kNone, or
/// the clean twin of run_scenario_vs_clean).
std::unique_ptr<byzantine::Adversary> make_adversary(
    const ScenarioConfig& config, bool with_attack) {
  if (!with_attack) return nullptr;
  switch (config.attack) {
    case AttackKind::kNone:
      return nullptr;
    case AttackKind::kStatic:
      return std::make_unique<byzantine::AdversaryModel>(config.static_attack);
    case AttackKind::kAdaptive:
      return std::make_unique<byzantine::AdaptiveAdversary>(
          config.plant.regions, config.plant.vehicles_per_region,
          config.adaptive_attack);
  }
  return nullptr;
}

void run_service_twist(const ScenarioConfig& config, std::size_t epochs,
                       ScenarioResult& result) {
  const auto game = chain_game(config.plant.regions, config.plant.beta);
  const auto graph = roadnet::make_grid(6, 6);
  core::FixedRatioController inner(0.7);

  service::ServiceParams sp;
  sp.vehicles_per_region = config.plant.vehicles_per_region;
  sp.seed = config.service.seed;
  sp.attacker_fraction = config.service.attacker_fraction;
  sp.churn_exploit = true;
  sp.exploit_patience = config.service.exploit_patience;
  sp.carry_suspicion = config.service.carry_suspicion;
  // The free-ride residual in the service plant is x * 3/3 ~ 0.7 per
  // epoch, well under the default system threshold of 2.0 — score the
  // service loop on its own scale so persistent free-riders actually
  // quarantine and the exploit trigger fires.
  sp.reputation.quarantine_threshold = 0.4;
  sp.reputation.rehab_threshold = 0.1;
  sp.reputation.min_rounds = 2;
  sp.churn.leave_rate = 0.01;
  sp.churn.join_slots = 2;
  sp.churn.join_rate = 0.5;
  sp.churn.seed = config.service.seed;

  service::ServiceEngine svc(game, inner, &graph, sp, nullptr);
  svc.init(game.uniform_state(),
           std::vector<double>(config.plant.regions, 0.5));
  for (std::size_t e = 0; e < epochs; ++e) svc.run_epoch();
  result.exploit_rejoins = svc.counters().exploit_rejoins;
  result.service_quarantined = svc.quarantined_count();
}

ScenarioResult run_impl(const ScenarioConfig& config, std::size_t rounds,
                        bool with_attack) {
  const PlantConfig& plant = config.plant;
  const auto game = chain_game(plant.regions, plant.beta);
  const std::size_t decisions = game.num_decisions();

  system::SystemParams params;
  params.vehicles_per_region = plant.vehicles_per_region;
  params.seed = plant.seed;
  params.net = config.net;

  const auto popts = config.pipeline_options();
  byzantine::ReportPipeline pipeline(plant.regions, decisions,
                                     plant.vehicles_per_region, popts);
  const std::unique_ptr<byzantine::Adversary> adversary =
      make_adversary(config, with_attack);
  system::CooperativePerceptionSystem sys(game, params, nullptr, &pipeline,
                                          adversary.get());
  sys.init_from(game.uniform_state());

  core::FdsOptions fopts;
  fopts.max_step = 0.15;
  core::FdsController controller(game, floor_fields(plant.regions, decisions),
                                 fopts);

  ScenarioResult result;
  result.x.reserve(rounds);
  result.honest.reserve(rounds);
  result.observed0.reserve(rounds);
  for (std::size_t t = 0; t < rounds; ++t) {
    const auto report = sys.run_round(controller);
    controller.set_desired(byzantine::density_weighted_fields(
        plant.regions, decisions, report.byzantine.density, kBaseFloor,
        kFloorSlope));
    result.x.push_back(report.x);
    result.honest.push_back(sys.honest_state());
    std::vector<double> observed(plant.regions);
    for (core::RegionId i = 0; i < plant.regions; ++i) {
      observed[i] = report.byzantine.observed.p[i][0];
      result.outliers_rejected += report.byzantine.outliers_rejected[i];
    }
    result.observed0.push_back(std::move(observed));
    if (t + 1 == rounds) {
      result.adaptive_dormant = report.byzantine.adaptive_dormant;
    }
  }

  const std::size_t tail = std::min(config.plant.tail_rounds, rounds);
  std::size_t n = 0;
  for (std::size_t t = rounds - tail; t < rounds; ++t) {
    for (core::RegionId i = 0; i < plant.regions; ++i) {
      result.observed_error_tail +=
          std::abs(result.observed0[t][i] - result.honest[t].p[i][0]);
      ++n;
    }
  }
  if (n > 0) result.observed_error_tail /= static_cast<double>(n);

  result.quarantined = pipeline.reputation().total_quarantined();
  result.distrusted = pipeline.trust().total_distrusted();
  std::size_t tp = 0, fp = 0, fn = 0;
  for (core::RegionId i = 0; i < plant.regions; ++i) {
    for (std::size_t v = 0; v < plant.vehicles_per_region; ++v) {
      const bool bad = adversary != nullptr && adversary->ever_attacks(i, v);
      const bool flagged = pipeline.excluded(i, v);
      tp += (bad && flagged) ? 1 : 0;
      fp += (!bad && flagged) ? 1 : 0;
      fn += (bad && !flagged) ? 1 : 0;
    }
  }
  result.precision =
      tp + fp == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  result.recall =
      tp + fn == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);

  if (with_attack && config.service.epochs > 0) {
    run_service_twist(config, config.service.epochs, result);
  }
  return result;
}

ScenarioConfig base_scenario(std::string name, std::string summary) {
  ScenarioConfig sc;
  sc.name = std::move(name);
  sc.summary = std::move(summary);
  return sc;
}

}  // namespace

void ScenarioConfig::validate() const {
  AVCP_EXPECT(!name.empty());
  AVCP_EXPECT(plant.regions >= 1);
  AVCP_EXPECT(plant.vehicles_per_region >= 2);
  AVCP_EXPECT(plant.rounds >= 1);
  AVCP_EXPECT(plant.tail_rounds >= 1 && plant.tail_rounds <= plant.rounds);
  AVCP_EXPECT(plant.beta > 0.0);
  switch (attack) {
    case AttackKind::kNone:
      break;
    case AttackKind::kStatic:
      AVCP_EXPECT(static_attack.any());
      AVCP_EXPECT(static_attack.attacker_fraction <= 1.0);
      break;
    case AttackKind::kAdaptive:
      AVCP_EXPECT(adaptive_attack.any());
      adaptive_attack.validate();
      break;
  }
  pipeline_options().reputation.validate();
  if (defense == DefenseKind::kTrust) {
    byzantine::TrustParams checked = trust;
    checked.enabled = true;
    checked.validate();
  }
  AVCP_EXPECT(service.attacker_fraction >= 0.0 &&
              service.attacker_fraction <= 1.0);
  AVCP_EXPECT(service.exploit_patience >= 1);
  net.validate();
}

byzantine::PipelineOptions ScenarioConfig::pipeline_options() const {
  byzantine::PipelineOptions options;
  switch (defense) {
    case DefenseKind::kTrusting:
      options.enforce_quarantine = false;
      options.telemetry_weight = 0.0;
      options.behavior_weight = 0.0;
      break;
    case DefenseKind::kRobust:
      options.aggregator.mode = byzantine::AggregationMode::kMedian;
      options.aggregator.reject_outliers = true;
      break;
    case DefenseKind::kTrust:
      options.aggregator.mode = byzantine::AggregationMode::kMedian;
      options.aggregator.reject_outliers = true;
      options.trust = trust;
      options.trust.enabled = true;
      break;
  }
  return options;
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            std::size_t rounds_override) {
  config.validate();
  const std::size_t rounds =
      rounds_override > 0 ? rounds_override : config.plant.rounds;
  return run_impl(config, rounds, /*with_attack=*/true);
}

ScenarioResult run_scenario_vs_clean(const ScenarioConfig& config,
                                     std::size_t rounds_override) {
  config.validate();
  const std::size_t rounds =
      rounds_override > 0 ? rounds_override : config.plant.rounds;
  ScenarioResult run = run_impl(config, rounds, /*with_attack=*/true);
  const ScenarioResult clean = run_impl(config, rounds, /*with_attack=*/false);
  const std::size_t tail = std::min(config.plant.tail_rounds, rounds);
  const std::size_t from = rounds - tail;
  double err = 0.0;
  std::size_t n = 0;
  for (std::size_t t = from; t < rounds; ++t) {
    for (std::size_t i = 0; i < config.plant.regions; ++i) {
      err += std::abs(run.x[t][i] - clean.x[t][i]);
      ++n;
    }
  }
  run.ratio_error_tail = n == 0 ? 0.0 : err / static_cast<double>(n);
  return run;
}

const std::vector<ScenarioConfig>& scenario_catalog() {
  static const std::vector<ScenarioConfig> catalog = [] {
    std::vector<ScenarioConfig> list;

    {
      auto sc = base_scenario("clean-robust",
                              "honest fleet under the robust defense "
                              "(baseline / bit-identity anchor)");
      sc.defense = DefenseKind::kRobust;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("clean-trust",
                              "honest fleet with the trust layer armed; "
                              "nobody must ever be distrusted");
      sc.defense = DefenseKind::kTrust;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("static-inflate-trusting",
                              "open-loop share-inflation vs the pre-PR "
                              "trusting mean");
      sc.attack = AttackKind::kStatic;
      sc.static_attack.attacker_fraction = 0.2;
      sc.static_attack.strategy = byzantine::AttackStrategy::kInflateSharing;
      sc.static_attack.seed = 13;
      sc.defense = DefenseKind::kTrusting;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("static-inflate-robust",
                              "open-loop share-inflation vs median + MAD "
                              "+ quarantine");
      sc.attack = AttackKind::kStatic;
      sc.static_attack.attacker_fraction = 0.2;
      sc.static_attack.strategy = byzantine::AttackStrategy::kInflateSharing;
      sc.static_attack.seed = 13;
      sc.defense = DefenseKind::kRobust;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("static-density-poison-robust",
                              "open-loop density poisoning vs the robust "
                              "defense");
      sc.attack = AttackKind::kStatic;
      sc.static_attack.attacker_fraction = 0.2;
      sc.static_attack.strategy = byzantine::AttackStrategy::kDensityPoison;
      sc.static_attack.seed = 13;
      sc.defense = DefenseKind::kRobust;
      list.push_back(std::move(sc));
    }

    const auto adaptive_pair = [&list](const char* slug, const char* what,
                                       byzantine::AdaptivePolicy policy,
                                       double fraction) {
      for (const DefenseKind defense :
           {DefenseKind::kRobust, DefenseKind::kTrust}) {
        const bool trusty = defense == DefenseKind::kTrust;
        auto sc = base_scenario(
            std::string(slug) + (trusty ? "-trust" : "-robust"),
            std::string(what) + (trusty
                                     ? " vs the ratcheting trust layer"
                                     : " vs the EWMA-only robust defense"));
        sc.plant.rounds = 120;
        sc.plant.tail_rounds = 30;
        // Interior operating regime: the claim channel actually moves the
        // cloud's picture (beta 4.0 saturates at share-everything, where a
        // falsified share-everything claim is vacuously true).
        sc.plant.beta = 1.5;
        sc.attack = AttackKind::kAdaptive;
        sc.adaptive_attack.attacker_fraction = fraction;
        sc.adaptive_attack.policy = policy;
        // Two-round rotation shifts: a 2-round zero-upload burst still
        // decays under the EWMA quarantine threshold (the attack works),
        // while single-round shifts would also slip the trust layer's
        // consecutive-zero evidence gate — a defender artifact, not an
        // attacker choice worth modelling separately.
        sc.adaptive_attack.shift_rounds = 2;
        sc.adaptive_attack.seed = 17;
        sc.defense = defense;
        list.push_back(std::move(sc));
      }
    };
    adaptive_pair("adaptive-build-defect",
                  "reputation-aware build-then-defect pacing",
                  byzantine::AdaptivePolicy::kBuildThenDefect, 0.2);
    adaptive_pair("adaptive-probe",
                  "binary-search for the largest safe defection dose",
                  byzantine::AdaptivePolicy::kThresholdProbe, 0.2);
    adaptive_pair("adaptive-collusion",
                  "region cohorts rotating defection shifts",
                  byzantine::AdaptivePolicy::kRegionCollusion, 0.2);
    adaptive_pair("adaptive-collusion-heavy",
                  "30% colluding cohorts on a dense fleet",
                  byzantine::AdaptivePolicy::kRegionCollusion, 0.3);

    {
      auto sc = base_scenario("churn-exploit-open",
                              "quarantined attackers wash their identity "
                              "through leave/rejoin; per-id reputation "
                              "resets and the attack works");
      sc.attack = AttackKind::kAdaptive;
      sc.adaptive_attack.attacker_fraction = 0.2;
      sc.adaptive_attack.policy = byzantine::AdaptivePolicy::kChurnExploit;
      sc.adaptive_attack.seed = 17;
      sc.plant.rounds = 80;
      sc.plant.tail_rounds = 20;
      sc.plant.beta = 1.5;
      sc.defense = DefenseKind::kRobust;
      sc.service.epochs = 120;
      sc.service.carry_suspicion = false;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("churn-exploit-keyed",
                              "the same identity wash against keyed-identity "
                              "suspicion carry-over; the rejoin buys nothing");
      sc.attack = AttackKind::kAdaptive;
      sc.adaptive_attack.attacker_fraction = 0.2;
      sc.adaptive_attack.policy = byzantine::AdaptivePolicy::kChurnExploit;
      sc.adaptive_attack.seed = 17;
      sc.plant.rounds = 80;
      sc.plant.tail_rounds = 20;
      sc.plant.beta = 1.5;
      sc.defense = DefenseKind::kTrust;
      sc.service.epochs = 120;
      sc.service.carry_suspicion = true;
      list.push_back(std::move(sc));
    }

    {
      auto sc = base_scenario("link-drop30-robust",
                              "honest fleet over a 30% lossy inter-region "
                              "wire with retries and bounded staleness; "
                              "consensus must hold within the degraded "
                              "envelope");
      sc.defense = DefenseKind::kRobust;
      sc.net.drop_rate = 0.3;
      sc.net.delay_rate = 0.2;
      sc.net.max_delay_rounds = 2;
      sc.net.duplicate_rate = 0.1;
      sc.net.reorder_rate = 0.1;
      sc.net.max_retries = 2;
      sc.net.max_staleness = 3;
      sc.net.seed = 29;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("partition-heal-robust",
                              "the region graph splits in two for a "
                              "mid-run window, then heals; trajectories "
                              "must reconverge after the merge");
      sc.defense = DefenseKind::kRobust;
      sc.plant.rounds = 60;
      sc.plant.tail_rounds = 15;
      net::PartitionWindow window;
      window.first_round = 15;
      window.duration = 15;
      window.num_components = 2;
      window.salt = 5;
      sc.net.partitions.push_back(window);
      sc.net.max_staleness = 4;
      sc.net.seed = 29;
      list.push_back(std::move(sc));
    }
    {
      auto sc = base_scenario("link-drop-adaptive-trust",
                              "closed-loop collusion riding a lossy wire: "
                              "the trust layer must still contain the "
                              "attack while the transport degrades the "
                              "cloud's picture");
      sc.plant.rounds = 120;
      sc.plant.tail_rounds = 30;
      sc.plant.beta = 1.5;
      sc.attack = AttackKind::kAdaptive;
      sc.adaptive_attack.attacker_fraction = 0.2;
      sc.adaptive_attack.policy = byzantine::AdaptivePolicy::kRegionCollusion;
      sc.adaptive_attack.shift_rounds = 2;
      sc.adaptive_attack.seed = 17;
      sc.defense = DefenseKind::kTrust;
      sc.net.drop_rate = 0.2;
      sc.net.delay_rate = 0.1;
      sc.net.max_retries = 2;
      sc.net.max_staleness = 3;
      sc.net.seed = 29;
      list.push_back(std::move(sc));
    }

    for (const ScenarioConfig& sc : list) sc.validate();
    return list;
  }();
  return catalog;
}

const ScenarioConfig* find_scenario(std::string_view name) {
  for (const ScenarioConfig& sc : scenario_catalog()) {
    if (sc.name == name) return &sc;
  }
  return nullptr;
}

}  // namespace avcp::scenario
