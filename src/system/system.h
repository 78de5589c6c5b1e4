// The full cooperative-perception system of the paper's framework (Fig. 1):
// cloud server, edge servers, and vehicles wired together per round.
//
//   S1 (steps 1-2): edge servers report their vehicles' decisions to the
//       cloud; the cloud's controller (FDS or a baseline) computes the
//       per-region sharing ratios x.
//   S2 (steps 3-5): each edge server forwards its ratio, vehicles upload
//       their decision-filtered sensor data, and the server distributes it
//       under the lattice policy (perception::EdgeServerDataPlane).
//
// Vehicles then revise decisions by *realized* fitness — the measured
// utility of the data they actually received minus the measured privacy
// cost of what they uploaded — via pairwise proportional imitation
// (core::imitate, with attacking vehicles held). Nothing in the plant
// evaluates Eq. (4); the analytic game is used only by the cloud's
// model-based controller. This closes the loop the paper's
// analysis abstracts: tests verify the realized per-decision fitness
// ranking agrees with the analytic one and that FDS still shapes the
// population when driving the measured plant.
//
// Data exchange is scoped per Voronoi cell within a region
// (SystemParams::cells_per_region, the Fig. 5 structure) while the ratio x
// is regional. The inter-region term of Eq. (4) is realized by directional
// cross-region rounds: gamma_ji of the neighbouring fleet acts as senders
// at the sender region's ratio (SystemParams::inter_region_exchange).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "byzantine/adaptive_adversary.h"
#include "byzantine/adversary_model.h"
#include "byzantine/report_pipeline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fds.h"
#include "core/game.h"
#include "faults/fault_model.h"
#include "net/exchange_channel.h"
#include "net/payload_ring.h"
#include "perception/data_plane.h"
#include "perception/measure.h"

namespace avcp::system {

struct SystemParams {
  std::size_t vehicles_per_region = 60;
  /// Items each sensor type contributes to the shared universe. 0 = auto:
  /// one item per vehicle per sensor type, so that (with disjoint dealing)
  /// every vehicle holds data of every type in expectation — the paper's
  /// setting, where each vehicle's S_a is non-trivial every round. A
  /// too-sparse universe creates data-less vehicles that enjoy pool access
  /// without ever paying privacy cost, which distorts the game.
  std::size_t items_per_sensor = 0;
  /// Probability a vehicle collects / desires a given universe item each
  /// round (fresh draws every round: the street scene changes).
  double collect_fraction = 0.5;
  double desire_fraction = 0.3;
  /// The paper assumes shared data from different vehicles is pairwise
  /// disjoint (§IV-A, before Eq. (4)); when true each universe item is
  /// collected by at most one vehicle per round (dealt uniformly). Set
  /// false to let collections overlap independently — the saturation that
  /// results is exactly the deviation from Property 3.1(d) additivity.
  bool disjoint_collections = true;
  /// Voronoi cells per region: data exchange happens within a cell (the
  /// paper's Fig. 5 — sharing is scoped to one edge server), while the
  /// sharing ratio x is set per region. More cells fragment the pools.
  std::size_t cells_per_region = 1;
  /// When true (default), vehicles additionally receive data from sampled
  /// neighbouring-region senders at the sender region's ratio — Eq. (4)'s
  /// inter-region term, with gamma_ji scaling how many senders they meet.
  bool inter_region_exchange = true;
  /// Upload/distribute repetitions per policy round ("the data exchange in
  /// steps 4 and 5 is repeated multiple times before the next updated
  /// policy arrives", §II). Fitness averages over the repetitions.
  std::size_t exchanges_per_round = 1;
  /// Decision-revision parameters (pairwise proportional imitation).
  double revision_rate = 0.8;
  double imitation_scale = 1.0;
  std::uint64_t seed = 2024;
  /// Distribution-phase kernel. kPairwiseExact (default) keeps the
  /// reference per-pair semantics and bit-identical trajectories;
  /// kClassAggregated runs the O(V·K) kernel (equal in distribution at
  /// item granularity — see data_plane.h). Cells with active per-pair
  /// delivery-loss faults fall back to the exact kernel for that round,
  /// since such masks cannot be class-aggregated.
  perception::DataPlaneMode data_plane_mode =
      perception::DataPlaneMode::kPairwiseExact;
  /// Worker lanes for the per-region round stages (report aggregation, the
  /// per-edge-server data plane, inter-region exchange, decision revision).
  /// 0 = hardware concurrency. Purely a throughput knob: every
  /// (round, region) draws from its own hash-derived RNG stream and all
  /// cross-region reductions run on the calling thread in region order, so
  /// the round series is bit-identical at every value (regression-locked in
  /// tests/determinism_test.cpp).
  std::size_t num_threads = 1;
  /// Degraded-network model for the inter-region exchange (DESIGN.md §17).
  /// Inert by default. When net.active() the exchange routes through a
  /// net::ExchangeChannel: each region publishes its round scene, the link
  /// model assigns message fates, and receivers consume the newest
  /// delivered payload within net.max_staleness rounds (blind links fall
  /// back to local-only revision). With zero degradation the channel path
  /// is bit-identical to the synchronous exchange; region outages keep
  /// their fault-layer semantics (a down region neither publishes nor
  /// consumes) on both paths.
  net::NetParams net;
};

/// Per-round measurements.
struct RoundReport {
  std::vector<double> x;              // ratios applied (per region)
  std::vector<double> mean_utility;   // realized, per region
  std::vector<double> mean_privacy;   // realized, per region
  std::vector<double> exposed_privacy;  // eavesdropper view, per region
  core::GameState state;              // decision distribution after revision
  /// Fault bookkeeping (all zero on the clean path).
  struct Faults {
    std::size_t uploads_lost = 0;
    std::size_t deliveries_lost = 0;
    /// Per-region splits of the totals above, so benches can attribute
    /// degradation spatially (which region's links eat the losses).
    std::vector<std::size_t> uploads_lost_by_region;
    std::vector<std::size_t> deliveries_lost_by_region;
    /// region_down[i] != 0 iff region i's edge servers skipped this round.
    std::vector<std::uint8_t> region_down;
    std::size_t regions_down = 0;
  } faults;

  /// Byzantine bookkeeping (inert default when neither an adversary nor a
  /// report pipeline is attached).
  struct Byzantine {
    bool active = false;
    /// The state the controller acted on this round: the aggregate of the
    /// *claimed* reports (== the true pre-revision empirical state on the
    /// clean path).
    core::GameState observed;
    /// Aggregated telemetry per region (what density_weighted_fields and
    /// any model-based consumer would ingest).
    std::vector<double> beta;
    std::vector<double> gamma;
    std::vector<double> density;
    std::vector<std::size_t> reports_used;
    std::vector<std::size_t> outliers_rejected;
    /// Vehicles quarantined per region when the round's reports were
    /// aggregated (before this round's reputation update).
    std::vector<std::size_t> quarantined;
    /// Fleet-wide quarantined count after this round's reputation update.
    std::size_t total_quarantined = 0;
    /// Fleet-wide distrusted count (trust layer) after this round.
    std::size_t total_distrusted = 0;
    /// Adaptive attackers that have backed off for good after detection.
    std::size_t adaptive_dormant = 0;
  } byzantine;

  /// Transport bookkeeping (active only when SystemParams::net routes the
  /// inter-region exchange through the ExchangeChannel). Message counts
  /// are this round's deltas of the channel's cumulative counters.
  struct Net {
    bool active = false;
    std::size_t sent = 0;
    std::size_t delivered = 0;
    std::size_t deduped = 0;
    std::size_t dropped = 0;
    std::size_t severed = 0;
    std::size_t delayed = 0;
    std::size_t duplicates = 0;
    std::size_t retries = 0;
    std::size_t expired = 0;
    /// Receiver links that consumed a held (stale) payload this round, and
    /// links that were blind (fell back to local-only revision).
    std::size_t stale_links = 0;
    std::size_t blind_links = 0;
    std::vector<std::uint32_t> stale_by_region;
    std::vector<std::uint32_t> blind_by_region;
  } net;
};

class CooperativePerceptionSystem {
 public:
  /// `game` carries the lattice, the per-decision tables, and the region
  /// betas the cloud's model uses; it must outlive the system. The data
  /// universe is generated internally from the lattice's sensor count.
  /// The three optional collaborators may each be null and must outlive
  /// the system:
  ///
  ///   `faults` supplies per-round upload/delivery loss and edge-server
  ///   outages to the data path. Its predicates are pure hashes that never
  ///   touch the system RNG, so a null model and one whose params().any()
  ///   is false run the same plant. Report loss is *not* applied here: a
  ///   faults::DegradedController wrapping the cloud controller (sharing
  ///   this model) decides which region reports it may act on.
  ///
  ///   `pipeline` is the cloud's Byzantine-robust report path: it
  ///   aggregates the claimed reports into the observation the controller
  ///   acts on, scores residuals, and (when enforcing) quarantines
  ///   persistent outliers, whose lattice access the plant then revokes.
  ///   Without one, a plain mean of the claims stands in for it.
  ///
  ///   `adversary` designates attacker vehicles that falsify their S1
  ///   reports and free-ride in the data plane — open-loop
  ///   (byzantine::AdversaryModel) or closed-loop
  ///   (byzantine::AdaptiveAdversary). The system owns the feedback loop:
  ///   it freezes the adversary's plan before the parallel stages, and
  ///   after the pipeline's end_round it publishes each designated
  ///   attacker's EWMA score, exclusion verdict, and region exclusion count
  ///   through the AdversaryObservation channel, then advances the
  ///   adversary — so it only ever sees what the defender chooses to
  ///   publish, in a fixed serial order that keeps trajectories
  ///   bit-identical at every thread count.
  ///
  /// With an inert adversary (active() == false) and a passthrough,
  /// non-enforcing pipeline the round series stays bit-identical to the
  /// bare plant: reports are exact deterministic values, predicates are
  /// pure hashes, and the pipeline's mean aggregation repeats the
  /// empirical-state arithmetic.
  CooperativePerceptionSystem(const core::MultiRegionGame& game,
                              SystemParams params,
                              const faults::FaultModel* faults = nullptr,
                              byzantine::ReportPipeline* pipeline = nullptr,
                              byzantine::Adversary* adversary = nullptr);

  std::size_t num_regions() const noexcept { return game_.num_regions(); }

  /// Decision distribution per region among the fleet (what edge servers
  /// report to the cloud in step S1-1 when every vehicle is honest).
  core::GameState empirical_state() const;

  /// Decision distribution of the *honest* sub-fleet only (ground truth
  /// for convergence metrics under attack; == empirical_state() when no
  /// adversary is attached). Regions whose fleet is entirely adversarial
  /// fall back to the full-region row.
  core::GameState honest_state() const;

  /// Seeds every vehicle's decision i.i.d. from `state`'s region rows.
  void init_from(const core::GameState& state);

  /// One full framework round with the given cloud controller.
  RoundReport run_round(core::Controller& controller);

  /// Convenience loop: runs rounds until `desired` is satisfied within
  /// `tol` (checked on the empirical state) or `max_rounds` elapse; returns
  /// rounds executed, or max_rounds when unconverged.
  std::size_t run_until(core::Controller& controller,
                        const core::DesiredFields& desired, double tol,
                        std::size_t max_rounds);

  /// Realized mean fitness of each decision in a region from the most
  /// recent round (NaN-free: decisions with no vehicles report 0).
  std::span<const double> realized_fitness(core::RegionId i) const;

  const perception::DataUniverse& universe() const noexcept {
    return universe_;
  }

  const std::vector<double>& current_x() const noexcept { return x_; }

  /// Framework rounds executed so far (the fault model's round index).
  std::size_t round() const noexcept { return round_; }

  /// Cumulative losses over all rounds (all zero on the clean path).
  const faults::FaultCounters& fault_counters() const noexcept {
    return fault_counters_;
  }

  /// Checkpoint hooks. save_state captures everything run_round consults
  /// beyond its (reconstructible) configuration: the round counter, the
  /// serial setup RNG, every plane's stream position, the fleet's
  /// decisions, the applied ratios, the realized-fitness table, the fault
  /// counters, and — when attached — the report pipeline's reputation
  /// state and the adversary's snapshot (led by its kind tag). A fresh
  /// system built with the same game/params/faults/pipeline/adversary
  /// wiring, after load_state, continues bit-identically to the original
  /// (the resume-equivalence contract; DESIGN.md §12). Call between rounds
  /// only. load_state throws SerialError when the snapshot's configuration
  /// fingerprint disagrees with the live system, including an adversary
  /// attached on one side only or of another kind, or when the snapshot is
  /// cut short or misshapen. A rejected snapshot leaves the system, its
  /// pipeline and its adversary as they were.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  const core::MultiRegionGame& game_;
  SystemParams params_;
  const faults::FaultModel* faults_;
  byzantine::ReportPipeline* pipeline_;
  /// Null unless an active adversary is attached.
  byzantine::Adversary* adversary_;
  std::size_t round_ = 0;
  faults::FaultCounters fault_counters_;
  /// Serial setup stream (universe synthesis, plane seeding, init_from).
  /// The round loop never draws from it: per-round randomness comes from
  /// hash-derived (round, region) streams so regions are independent.
  Rng rng_;
  ThreadPool pool_;
  perception::DataUniverse universe_;
  /// decisions_[region][vehicle].
  std::vector<std::vector<core::DecisionId>> decisions_;
  /// One data plane per edge server (distinct RNG streams).
  std::vector<perception::EdgeServerDataPlane> planes_;
  std::vector<double> x_;
  /// realized_[region][decision] from the last round.
  std::vector<std::vector<double>> realized_;

  /// Per-region round workspace, persistent across rounds (grow-only, so
  /// the per-round hot path stops allocating once every buffer has seen its
  /// high-water mark). `fleet` is the region's per-exchange scene in SoA
  /// layout (perception/fleet_soa.h) — one flat item arena instead of two
  /// heap ItemSets per vehicle per exchange; after the data-plane stage it
  /// holds the *last* exchange's scene, which is exactly what the
  /// inter-region stage reads from neighbours (the stage barrier freezes
  /// it). Only region i's task writes region i's workspace.
  struct RegionWorkspace {
    perception::FleetSoA fleet;
    perception::FleetSoA cell;     // per-cell sub-fleet (cells > 1 only)
    perception::FleetSoA senders;  // inter-region sender sample
    perception::RoundOutcome outcome;
    perception::EdgeServerDataPlane::DirectionalOutcome dout;
    perception::CellFaultMask mask;
    std::vector<std::size_t> cell_index;
    std::vector<double> fitness;      // realized per-vehicle round fitness
    std::vector<double> upload_mass;  // behavioural-audit signal
    std::vector<double> counts;       // per-decision tally scratch
    std::vector<core::DecisionId> before;  // revision snapshot
    // Scene-synthesis window, one slot per universe item (sized once at
    // construction): a set's kept ids are its ascending prefix.
    std::vector<perception::ItemId> picked;
    // Disjoint-collection dealing scratch (record-then-scatter: the draws
    // happen in ascending item order exactly as before; the scatter groups
    // each owner's items — still ascending — into its arena window).
    std::vector<perception::ItemId> deal_item;
    std::vector<std::uint32_t> deal_owner;
    std::vector<std::uint32_t> owner_count;
    std::vector<std::uint32_t> owner_fill;
    std::vector<perception::ItemId> deal_sorted;
  };
  std::vector<RegionWorkspace> region_ws_;
  /// Per-round claimed/executed decisions (mirror decisions_ on the clean
  /// path); members so the round loop reuses their capacity.
  std::vector<std::vector<core::DecisionId>> claims_;
  std::vector<std::vector<core::DecisionId>> behavior_;
  /// Cost-balanced chunk plan over regions (vehicles × classes weights);
  /// fleet shapes are fixed at construction, so the plan is too.
  std::vector<double> region_cost_;
  std::vector<std::uint32_t> chunk_plan_;
  perception::ItemSet no_server_items_;

  /// Degraded-network transport (engaged iff params_.net.active() and the
  /// inter-region exchange is on). One channel link per directed neighbour
  /// edge dst <- src, added in (dst, neighbour-order) order so the
  /// canonical consume order is exactly the synchronous neighbour order.
  std::optional<net::LinkModel> link_model_;
  std::optional<net::ExchangeChannel> channel_;
  /// Per-link gamma of the neighbour edge it carries.
  std::vector<double> link_gamma_;
  /// out_links_[j]: links whose sender is region j.
  std::vector<std::vector<std::uint32_t>> out_links_;
  /// A published inter-region payload: the sender's end-of-stage-A scene
  /// and the ratio it was produced under, ring-buffered per sender region.
  /// The serial transport step writes the rings; stage B only reads them,
  /// so lanes never race on payload memory.
  struct Scene {
    double x = 0.0;
    perception::FleetSoA fleet;
  };
  net::PayloadRing<Scene> scenes_;
};

}  // namespace avcp::system
