// Byzantine-robustness sweep: adversary strategy x attacker fraction x
// defence posture on the measured plant, each cell against the same seeded
// clean twin.
//
// Every cell is one scenario::run_scenario run of the shared plant
// (scenario/scenario.h): a 3-region beta-4.0 chain whose share-everything
// floors are recomputed every round from the pipeline's aggregated density
// telemetry (density_weighted_fields + FdsController::set_desired). The
// clean twin is the kNone scenario under the robust defense — a fully
// armed pipeline over an attacker-free fleet (bit-identical to the bare
// plant per the system_byzantine tests) — so both arms ingest telemetry
// the same way. Per cell:
//
//   ratio_error_tail        mean over tail rounds/regions of |x - x_clean|
//   observed_error_tail     mean |observed p(P1) - honest truth| (how far
//                           the cloud's picture is dragged by the lies)
//   observed_error_all      the same error over the whole run — inflated
//                           claims distort mostly the transient, before the
//                           coordinated fixed point masks them
//   honest_converged_round  first round the *honest* fleet entered the
//                           desired field for good (kNoReconvergence -> -1)
//   precision / recall      quarantine flags vs. the adversary's designated
//                           attacker set at the end of the run
//   quarantined / rejected  head-count and per-round outlier rejections
//
// The vulnerable arm replaces the robust estimators with a trusting mean
// (no rejection, no enforcement, no scoring) — the pre-PR cloud. Output is
// one JSON document on stdout:
//
//   ./build/bench/bench_byzantine > byzantine.json
//   ./build/bench/bench_byzantine --smoke   # tiny CI configuration
//
// --adaptive switches to the closed-loop sweep: the reputation-aware
// AdaptiveAdversary policies (build-then-defect pacing, threshold probing,
// rotating region collusion) x attacker fraction x defense {ewma, trust},
// run through the declarative scenario layer (scenario/scenario.h) so the
// bench exercises the exact configurations the catalog registers. The
// headline contrast: the PR-2 EWMA-only defense leaks a nonzero steady-
// state ratio error against pacing and collusion (the bursts are sized to
// its forgetting dynamics), while the Beta-prior trust ratchet holds the
// tail error at zero for >= 20% adaptive attackers. A final section runs
// the service-layer churn-exploit twist (identity wash on rejoin) with and
// without keyed-identity suspicion carry-over.
//
//   ./build/bench/bench_byzantine --adaptive > BENCH_adaptive.json
//   ./build/bench/bench_byzantine --adaptive --smoke
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "byzantine/adversary_model.h"
#include "scenario/scenario.h"
#include "sim/metrics.h"

#include "bench_common.h"

using namespace avcp;

namespace {

struct BenchConfig {
  std::size_t rounds = 120;
  std::size_t tail_rounds = 30;
  std::size_t vehicles = 100;
  std::vector<double> fractions = {0.1, 0.2, 0.3};
  std::vector<byzantine::AttackStrategy> strategies = {
      byzantine::AttackStrategy::kInflateSharing,
      byzantine::AttackStrategy::kDensityPoison,
      byzantine::AttackStrategy::kGammaExaggerate,
      byzantine::AttackStrategy::kColludingBias,
      byzantine::AttackStrategy::kFlipFlop,
  };
};

BenchConfig smoke_config() {
  BenchConfig config;
  config.rounds = 40;
  config.tail_rounds = 10;
  config.vehicles = 40;
  config.fractions = {0.2};
  config.strategies = {byzantine::AttackStrategy::kInflateSharing,
                       byzantine::AttackStrategy::kDensityPoison};
  return config;
}

constexpr std::size_t kRegions = 3;

const char* strategy_name(byzantine::AttackStrategy s) {
  switch (s) {
    case byzantine::AttackStrategy::kInflateSharing: return "inflate_sharing";
    case byzantine::AttackStrategy::kDensityPoison: return "density_poison";
    case byzantine::AttackStrategy::kGammaExaggerate: return "gamma_exaggerate";
    case byzantine::AttackStrategy::kColludingBias: return "colluding_bias";
    case byzantine::AttackStrategy::kFlipFlop: return "flip_flop";
  }
  return "?";
}

/// One static-sweep cell as a scenario: the shared beta-4.0 chain plant at
/// the sweep's fleet size and round budget. With `attack` null it is the
/// clean twin (kNone under the robust defense).
scenario::ScenarioConfig static_cell(const BenchConfig& config,
                                     const byzantine::AdversaryParams* attack,
                                     bool robust) {
  scenario::ScenarioConfig sc;
  sc.name = "bench-static-cell";
  sc.plant.regions = kRegions;
  sc.plant.vehicles_per_region = config.vehicles;
  sc.plant.rounds = config.rounds;
  sc.plant.tail_rounds = config.tail_rounds;
  if (attack != nullptr) {
    sc.attack = scenario::AttackKind::kStatic;
    sc.static_attack = *attack;
  }
  sc.defense = robust ? scenario::DefenseKind::kRobust
                      : scenario::DefenseKind::kTrusting;
  return sc;
}

/// The cell metrics a single scenario run does not report itself.
struct CellMetrics {
  double ratio_error_tail = 0.0;
  double observed_error_all = 0.0;
  long honest_converged_round = -1;
};

CellMetrics compare(const scenario::ScenarioResult& clean,
                    const scenario::ScenarioResult& run,
                    const BenchConfig& config) {
  CellMetrics m;
  const std::size_t from = config.rounds - config.tail_rounds;
  std::size_t n = 0;
  for (std::size_t t = from; t < config.rounds; ++t) {
    for (core::RegionId i = 0; i < kRegions; ++i) {
      m.ratio_error_tail += std::abs(run.x[t][i] - clean.x[t][i]);
      ++n;
    }
  }
  m.ratio_error_tail /= static_cast<double>(n);
  for (std::size_t t = 0; t < config.rounds; ++t) {
    for (core::RegionId i = 0; i < kRegions; ++i) {
      m.observed_error_all +=
          std::abs(run.observed0[t][i] - run.honest[t].p[i][0]);
    }
  }
  m.observed_error_all /=
      static_cast<double>(config.rounds * kRegions);
  const std::size_t converged = sim::rounds_to_reconverge(
      run.honest, scenario::floor_fields(kRegions, 8), 0, 1e-9);
  if (converged != sim::kNoReconvergence) {
    m.honest_converged_round = static_cast<long>(converged);
  }
  return m;
}

void print_cell(const char* defense, byzantine::AttackStrategy strategy,
                double fraction, const scenario::ScenarioResult& run,
                const CellMetrics& m, bool last) {
  std::printf(
      "    {\"strategy\": \"%s\", \"fraction\": %.2f, \"defense\": \"%s\",\n"
      "     \"ratio_error_tail\": %.6f, \"observed_error_tail\": %.6f,\n"
      "     \"observed_error_all\": %.6f,\n"
      "     \"honest_converged_round\": %ld,\n"
      "     \"precision\": %.4f, \"recall\": %.4f,\n"
      "     \"quarantined\": %zu, \"outliers_rejected\": %zu}%s\n",
      strategy_name(strategy), fraction, defense, m.ratio_error_tail,
      run.observed_error_tail, m.observed_error_all, m.honest_converged_round,
      run.precision, run.recall, run.quarantined, run.outliers_rejected,
      last ? "" : ",");
}

// ---------------------------------------------------------------------------
// --adaptive: the closed-loop sweep through the scenario layer
// ---------------------------------------------------------------------------

const char* policy_name(byzantine::AdaptivePolicy p) {
  switch (p) {
    case byzantine::AdaptivePolicy::kBuildThenDefect: return "build_then_defect";
    case byzantine::AdaptivePolicy::kThresholdProbe: return "threshold_probe";
    case byzantine::AdaptivePolicy::kRegionCollusion: return "region_collusion";
    case byzantine::AdaptivePolicy::kChurnExploit: return "churn_exploit";
  }
  return "?";
}

scenario::ScenarioConfig adaptive_cell(byzantine::AdaptivePolicy policy,
                                       double fraction, bool trust,
                                       bool smoke) {
  scenario::ScenarioConfig sc;
  sc.name = "bench-adaptive-cell";
  sc.plant.vehicles_per_region = smoke ? 40 : 100;
  sc.plant.rounds = smoke ? 60 : 160;
  sc.plant.tail_rounds = smoke ? 15 : 40;
  sc.plant.beta = 1.5;  // interior regime: the claim channel moves x
  sc.attack = scenario::AttackKind::kAdaptive;
  sc.adaptive_attack.attacker_fraction = fraction;
  sc.adaptive_attack.policy = policy;
  sc.adaptive_attack.shift_rounds = 2;  // see the catalog's adaptive pairs
  sc.adaptive_attack.seed = 17;
  sc.defense =
      trust ? scenario::DefenseKind::kTrust : scenario::DefenseKind::kRobust;
  return sc;
}

int run_adaptive(bool smoke) {
  const std::vector<byzantine::AdaptivePolicy> policies = {
      byzantine::AdaptivePolicy::kBuildThenDefect,
      byzantine::AdaptivePolicy::kThresholdProbe,
      byzantine::AdaptivePolicy::kRegionCollusion,
  };
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.2} : std::vector<double>{0.2, 0.3};

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_byzantine_adaptive\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"sweep\": [\n");
  const std::size_t cells = policies.size() * fractions.size() * 2;
  std::size_t emitted = 0;
  for (const auto policy : policies) {
    for (const double fraction : fractions) {
      for (const bool trust : {false, true}) {
        const auto sc = adaptive_cell(policy, fraction, trust, smoke);
        const auto r = scenario::run_scenario_vs_clean(sc);
        std::printf(
            "    {\"policy\": \"%s\", \"fraction\": %.2f, "
            "\"defense\": \"%s\",\n"
            "     \"tail_error\": %.6f, \"control_error_tail\": %.6f,\n"
            "     \"quarantined\": %zu, \"distrusted\": %zu, "
            "\"dormant\": %zu,\n"
            "     \"precision\": %.4f, \"recall\": %.4f}%s\n",
            policy_name(policy), fraction, trust ? "trust" : "ewma",
            r.observed_error_tail, r.ratio_error_tail, r.quarantined,
            r.distrusted, r.adaptive_dormant, r.precision, r.recall,
            ++emitted == cells ? "" : ",");
      }
    }
  }
  std::printf("  ],\n");

  // The service-layer identity wash: same exploit stream with and without
  // keyed-identity suspicion carry-over.
  std::printf("  \"churn_exploit\": [\n");
  for (const bool keyed : {false, true}) {
    scenario::ScenarioConfig sc =
        *scenario::find_scenario(keyed ? "churn-exploit-keyed"
                                       : "churn-exploit-open");
    if (smoke) {
      sc.plant.rounds = 30;
      sc.plant.tail_rounds = 10;
      sc.service.epochs = 60;
    }
    const auto r = scenario::run_scenario_vs_clean(sc);
    std::printf(
        "    {\"scenario\": \"%s\", \"carry_suspicion\": %s,\n"
        "     \"exploit_rejoins\": %llu, \"service_quarantined\": %zu,\n"
        "     \"tail_error\": %.6f, \"control_error_tail\": %.6f, "
        "\"dormant\": %zu}%s\n",
        sc.name.c_str(), keyed ? "true" : "false",
        static_cast<unsigned long long>(r.exploit_rejoins),
        r.service_quarantined, r.observed_error_tail, r.ratio_error_tail,
        r.adaptive_dormant, keyed ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return bench::finish_json_output();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool adaptive = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--adaptive") == 0) adaptive = true;
  }
  if (adaptive) return run_adaptive(smoke);
  const BenchConfig config = smoke ? smoke_config() : BenchConfig{};
  const scenario::ScenarioResult clean =
      scenario::run_scenario(static_cell(config, nullptr, true));

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_byzantine\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"rounds\": %zu,\n", config.rounds);
  std::printf("  \"tail_rounds\": %zu,\n", config.tail_rounds);
  std::printf("  \"vehicles_per_region\": %zu,\n", config.vehicles);
  std::printf("  \"regions\": %zu,\n", kRegions);
  std::printf("  \"clean_converged_round\": %ld,\n",
              compare(clean, clean, config).honest_converged_round);
  std::printf("  \"sweep\": [\n");

  const std::size_t cells =
      config.strategies.size() * config.fractions.size() * 2;
  std::size_t emitted = 0;
  for (const auto strategy : config.strategies) {
    for (const double fraction : config.fractions) {
      byzantine::AdversaryParams aparams;
      aparams.attacker_fraction = fraction;
      aparams.strategy = strategy;
      aparams.seed = 13;
      if (strategy == byzantine::AttackStrategy::kColludingBias) {
        aparams.target_region = 0;
      }
      for (const bool robust : {false, true}) {
        const scenario::ScenarioResult run =
            scenario::run_scenario(static_cell(config, &aparams, robust));
        const CellMetrics m = compare(clean, run, config);
        print_cell(robust ? "robust" : "trusting", strategy, fraction, run, m,
                   ++emitted == cells);
      }
    }
  }
  std::printf("  ]\n}\n");
  return bench::finish_json_output();
}
