// Declarative attack x defense scenario catalog.
//
// Every robustness experiment in the repo is some wiring of the same five
// knobs: an attack (none / one of AdversaryModel's open-loop strategies /
// one of AdaptiveAdversary's closed-loop policies), a defense posture
// (trusting mean, robust median + EWMA quarantine, or the Beta-prior trust
// layer on top), a fleet mix (regions x vehicles), a round budget, and an
// optional service-layer churn twist (quarantined attackers washing their
// identity through leave/rejoin). ScenarioConfig names one such wiring as
// plain data; the registry enumerates the canonical suite so tests, the
// bench harness, and future experiment drivers all run the exact same
// configurations by name instead of re-wiring them by hand:
//
//   const ScenarioConfig* sc = scenario::find_scenario("adaptive-build-defect-trust");
//   sc->validate();
//   const ScenarioResult r = scenario::run_scenario(*sc);
//
// run_scenario drives the telemetry-closed loop (FdsController floors
// recomputed every round from aggregated density) that both
// bench_byzantine sweeps run, and is deterministic: every draw descends
// from ScenarioConfig seeds, so a scenario's trajectory is bit-identical
// across runs and thread counts. The plant's game and its initial floors
// are exported too (chain_game, floor_fields), so the fault, partition and
// recovery benches drive the same plant.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "byzantine/adaptive_adversary.h"
#include "byzantine/adversary_model.h"
#include "byzantine/report_pipeline.h"
#include "core/fds.h"
#include "core/game.h"
#include "net/link_model.h"

namespace avcp::scenario {

enum class AttackKind : std::uint8_t {
  kNone = 0,      // honest fleet (baseline / bit-identity anchor)
  kStatic = 1,    // AdversaryModel open-loop strategy
  kAdaptive = 2,  // AdaptiveAdversary closed-loop policy
};

enum class DefenseKind : std::uint8_t {
  kTrusting = 0,  // pre-robustness cloud: mean, no rejection, no scoring
  kRobust = 1,    // median + MAD rejection + EWMA quarantine (PR 2)
  kTrust = 2,     // kRobust plus the Beta-prior trust layer (trust.h)
};

/// The shared plant: a chain of beta-4.0 regions under the measured
/// system, desired-field floors driven by aggregated density telemetry.
struct PlantConfig {
  std::size_t regions = 3;
  std::size_t vehicles_per_region = 40;
  std::size_t rounds = 40;
  /// Tail window for steady-state error metrics (must be <= rounds).
  std::size_t tail_rounds = 10;
  /// Privacy sensitivity of every region. 4.0 reproduces the bench plant
  /// whose clean loop saturates at share-everything; lower values leave the
  /// fixed point interior, where the controller actively enforces the
  /// desired field and a falsified claim distribution actually moves x.
  double beta = 4.0;
  std::uint64_t seed = 11;
};

/// The shared plant's game: `regions` regions in a chain, each at utility
/// coefficient `beta` with gamma_self 1 and 0.3 coupling to every chain
/// neighbour, over the paper's 3-sensor decision tables (8 decisions) at
/// replicator step size 0.5.
core::MultiRegionGame chain_game(std::size_t regions, double beta);

/// The shared plant's initial desired fields: the share-everything
/// decision held in [0.7, 1] in every region, every other decision free.
core::DesiredFields floor_fields(std::size_t regions, std::size_t decisions);

/// Optional service-layer rider: run the same attacker fraction through a
/// churning ServiceEngine fleet where quarantined attackers leave and
/// rejoin under fresh vehicle ids (ServiceParams::churn_exploit), with or
/// without the keyed-identity suspicion carry-over defense.
struct ServiceTwist {
  /// 0 disables the rider entirely.
  std::size_t epochs = 0;
  double attacker_fraction = 0.2;
  std::size_t exploit_patience = 2;
  bool carry_suspicion = false;
  std::uint64_t seed = 23;
};

struct ScenarioConfig {
  std::string name;
  std::string summary;
  PlantConfig plant;
  AttackKind attack = AttackKind::kNone;
  /// Read when attack == kStatic; must satisfy any() then.
  byzantine::AdversaryParams static_attack;
  /// Read when attack == kAdaptive; must satisfy any() then.
  byzantine::AdaptiveAdversaryParams adaptive_attack;
  DefenseKind defense = DefenseKind::kRobust;
  /// Trust layer knobs; forced enabled iff defense == kTrust.
  byzantine::TrustParams trust;
  ServiceTwist service;
  /// Degraded inter-region transport (SystemParams::net): drop/delay/
  /// duplicate/reorder rates, retry budget, bounded staleness, partition
  /// windows. Inert by default, so pre-existing scenarios run the exact
  /// synchronous exchange they always did.
  net::NetParams net;

  /// Range-checks the whole wiring (FaultParams pattern), including the
  /// nested attack / trust / reputation params that are actually in play.
  /// ContractViolation on the first bad field.
  void validate() const;

  /// The pipeline wiring implied by `defense` (aggregation mode, rejection,
  /// quarantine enforcement, trust enablement).
  byzantine::PipelineOptions pipeline_options() const;
};

/// The canonical registry: every named scenario the suite ships. Stable
/// order, unique names; each entry passes validate().
const std::vector<ScenarioConfig>& scenario_catalog();

/// Registry lookup; nullptr when the name is unknown.
const ScenarioConfig* find_scenario(std::string_view name);

/// What one scenario run produced.
struct ScenarioResult {
  /// Sharing-ratio trajectory, [round][region].
  std::vector<std::vector<double>> x;
  /// Post-revision honest truth per round (attackers excluded).
  std::vector<core::GameState> honest;
  /// The cloud's aggregated p(share-everything) per round and region.
  std::vector<std::vector<double>> observed0;
  std::size_t quarantined = 0;
  std::size_t distrusted = 0;
  std::size_t adaptive_dormant = 0;  // final-round dormant attacker count
  std::size_t outliers_rejected = 0;
  double precision = 1.0;  // quarantine+distrust flags vs designated set
  double recall = 1.0;
  /// Service rider outcomes (all zero when service.epochs == 0).
  std::uint64_t exploit_rejoins = 0;
  std::size_t service_quarantined = 0;

  /// Deception error: mean over the tail window and all regions of
  /// |observed p(share-everything) - honest truth|. Exactly 0 once every
  /// attacker is excluded from the aggregate (the cloud's picture IS the
  /// honest cohort); nonzero while falsified claims survive in it. This is
  /// the headline break/hold metric of the adaptive sweep.
  double observed_error_tail = 0.0;

  /// Mean over the tail window and all regions of |x - clean.x| where
  /// `clean` is the same plant with the attack removed. Filled by
  /// run_scenario_vs_clean; 0 from run_scenario.
  double ratio_error_tail = 0.0;
};

/// Runs the scenario's closed loop. rounds_override > 0 truncates the round
/// budget (the scenario-catalog round-trip test runs every entry briefly).
ScenarioResult run_scenario(const ScenarioConfig& config,
                            std::size_t rounds_override = 0);

/// run_scenario plus a clean twin (attack stripped, same defense and
/// seeds) for the tail-error contrast; fills ratio_error_tail.
ScenarioResult run_scenario_vs_clean(const ScenarioConfig& config,
                                     std::size_t rounds_override = 0);

}  // namespace avcp::scenario
