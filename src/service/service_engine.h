// Long-running consensus service over a churning fleet (service layer).
//
// Every engine below src/sim is a batch: fix a fleet, run T rounds, return.
// ServiceEngine is the deployment shape — an epoch loop that keeps serving
// FDS control decisions while the world changes under it:
//
//   churn      vehicles Join / Leave / Migrate per a seeded deterministic
//              EventStream; per-vehicle state (decision, EWMA reputation,
//              quarantine status) rides in a VehicleRecord keyed by a
//              stable id, so it follows the vehicle across regions;
//   clustering region membership derives from road segments through an
//              IncrementalClustering whose congestion-scaled weights shift
//              with the per-segment vehicle loads; betweenness and
//              Algorithm 1 refresh incrementally on the load deltas, with
//              a from-scratch-equivalence contract at every epoch;
//   faults     a region outage (faults::FaultModel) freezes that region's
//              fleet for the epoch and starves the cloud of its report;
//              the owned DegradedController reroutes — holding or decaying
//              the region's ratio within the smoothness bound — instead of
//              acting on garbage;
//   overload   an epoch with more churn events than `overload_events`
//              sheds its re-clustering work, deferring the load deltas; a
//              bounded staleness budget caps how many consecutive epochs
//              may defer before maintenance is forced;
//   byzantine  a seeded fraction of vehicles free-ride: they claim the
//              share-everything decision while uploading nothing and never
//              revising. The service scores each vehicle's upload-volume
//              residual (expected-under-claim minus observed), folds it
//              into a per-vehicle EWMA, and quarantines persistent
//              offenders — quarantined reports are excluded from the
//              observed state the controller acts on.
//
// Determinism contract: every stochastic draw comes from a pure hash or a
// counter-based stream keyed by (seed, stream, epoch, region-or-id), and
// per-region revision fans out over a ThreadPool with no cross-region
// reduction — the trajectory is bit-identical at every thread count. With
// churn off, congestion_alpha == 0, and no attackers, the service is
// bit-identical to AgentBasedSim driven by the same wrapped controller
// (the epoch loop IS the paper's round loop, one epoch per round, and both
// revise through core::imitate); with churn on, save_state/load_state
// extend the PR-5 checkpoint format (section kSectionService) so a killed
// service resumes mid-stream bit-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "byzantine/reputation.h"
#include "cluster/incremental_clustering.h"
#include "common/thread_pool.h"
#include "core/fds.h"
#include "core/fleet_stream.h"
#include "core/game.h"
#include "faults/degraded_controller.h"
#include "faults/fault_model.h"
#include "net/exchange_channel.h"
#include "net/payload_ring.h"
#include "roadnet/road_graph.h"
#include "service/events.h"

namespace avcp::service {

struct ServiceParams {
  /// Initial fleet: this many vehicles seeded into every region (>= 2).
  std::size_t vehicles_per_region = 50;
  /// Revision dynamics, matching AgentSimParams semantics exactly.
  double revision_rate = 1.0;
  double imitation_scale = 1.0;
  std::uint64_t seed = 99;
  /// Worker lanes for per-region epoch work; bit-identical at every value.
  std::size_t num_threads = 1;

  /// Fraction of vehicles (per pure *identity* hash) that free-ride: claim
  /// the share-everything decision, upload nothing, never revise.
  double attacker_fraction = 0.0;

  /// Churn-exploit attack: a quarantined attacker that has sat out
  /// exploit_patience consecutive quarantined epochs leaves and immediately
  /// rejoins on a hash-derived segment under a FRESH vehicle id — wiping
  /// its per-id reputation record and reopening the blind-start window,
  /// unless the defense below is on.
  bool churn_exploit = false;
  std::size_t exploit_patience = 2;
  /// Keyed-identity defense: VehicleRecord::identity is stable across the
  /// exploit rejoin, and with this flag the reputation record (EWMA,
  /// streaks, observation count, quarantine status) rides along with the
  /// identity instead of resetting with the id — the rejoin buys the
  /// attacker nothing.
  bool carry_suspicion = false;

  ChurnParams churn;
  faults::DegradedOptions degraded;
  byzantine::ReputationParams reputation;

  /// Load-to-weight coupling of the incremental clustering
  /// (IncrementalClusteringOptions::congestion_alpha). 0 freezes the
  /// clustering for the whole run.
  double congestion_alpha = 0.0;
  /// Epochs with more churn events than this shed re-clustering work
  /// (deltas are deferred, not dropped).
  std::size_t overload_events = ~std::size_t{0};
  /// Max consecutive shed epochs before maintenance is forced. Bounds how
  /// stale the clustering the controller acts on can ever be.
  std::size_t staleness_budget = 4;

  /// Degraded backhaul between the regions and the cloud. When
  /// net.active(), every region's per-epoch decision report travels a
  /// region->cloud link of a net::ExchangeChannel: reports can be dropped,
  /// delayed, duplicated, or cut by a partition window, with bounded
  /// retries. The cloud consumes the newest report at most
  /// net.max_staleness epochs old and feeds the per-region freshness
  /// verdict to the DegradedController, which bounds how long a blind
  /// region may coast. With zero degradation the epoch trajectory is
  /// bit-identical to the synchronous path.
  net::NetParams net;

  void validate() const;  // throws ContractViolation on any bad field
};

/// A vehicle's complete cross-epoch state, keyed by a stable monotone id.
/// Migration moves the record between regions intact — reputation history
/// (the inherited byzantine::ReputationCell: EWMA, rehab streak,
/// quarantine status) is a property of the vehicle, not of its current
/// region slot.
struct VehicleRecord : byzantine::ReputationCell {
  std::uint64_t id = 0;
  /// Stable identity key: equals the id assigned at the vehicle's FIRST
  /// join and survives a churn-exploit leave/rejoin that mints a fresh id.
  /// Attacker designation and (with carry_suspicion) the reputation record
  /// are keyed on it — identity, not id, is what the cloud holds to
  /// account.
  std::uint64_t identity = 0;
  roadnet::SegmentId segment = 0;
  core::RegionId region = 0;
  core::DecisionId decision = 0;
  bool attacker = false;
  /// Epochs scored so far (the blind-start guard's count).
  std::uint64_t observed_epochs = 0;
  /// Consecutive epochs spent quarantined (drives the exploit trigger).
  std::uint64_t quarantined_streak = 0;

  friend bool operator==(const VehicleRecord&, const VehicleRecord&) = default;
};

/// Cumulative liveness accounting; serialized with the engine so a
/// resumed run reports the same totals as an uninterrupted one.
struct ServiceCounters {
  std::uint64_t epochs = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t migrations = 0;
  std::uint64_t reclusters = 0;
  std::uint64_t recluster_deferred = 0;
  std::uint64_t betweenness_chunks_recomputed = 0;
  std::uint64_t outage_region_epochs = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t releases = 0;
  /// Churn-exploit leave/rejoin cycles executed by quarantined attackers.
  std::uint64_t exploit_rejoins = 0;

  friend bool operator==(const ServiceCounters&,
                         const ServiceCounters&) = default;

  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);
};

class ServiceEngine {
 public:
  /// `game`, `inner`, `graph`, and `faults` must outlive the engine. The
  /// engine owns the DegradedController wrapped around `inner` (an inert
  /// FaultModel is substituted when `faults` is null, so the wrapper is
  /// always in the loop and zero-fault runs stay bit-comparable to faulted
  /// ones). `graph` is required: region membership derives from road
  /// segments through the incremental clustering, whose region count must
  /// match the game's.
  ServiceEngine(const core::MultiRegionGame& game, core::Controller& inner,
                const roadnet::RoadGraph* graph, ServiceParams params,
                const faults::FaultModel* faults = nullptr);

  /// Cold start at epoch 0: seeds the fleet from `initial`'s per-region
  /// distributions using AgentBasedSim's init streams, resets the
  /// controller wrapper, loads, and counters.
  void init(const core::GameState& initial, std::vector<double> x0);

  /// Streaming cold start: the fleet is ingested from a core::FleetSource
  /// in `ingest_batch`-sized pulls instead of being synthesized
  /// region-major. Decisions come from the source; each vehicle's road
  /// segment comes from a pure per-source-id hash stream, so the resulting
  /// fleet is independent of the batch size (city-scale traces can stream
  /// in without ever materializing a seed list).
  void init_from_source(const core::GameState& initial,
                        std::vector<double> x0, core::FleetSource& source,
                        std::size_t ingest_batch = 4096);

  /// One epoch: churn -> clustering maintenance -> snapshot -> control ->
  /// revision -> reputation. Requires init() or load_state() first.
  void run_epoch();

  std::size_t epoch() const noexcept { return epoch_; }
  const ServiceParams& params() const noexcept { return params_; }
  /// Empirical truth at the last snapshot.
  const core::GameState& true_state() const noexcept { return state_; }
  /// What the cloud saw: claimed decisions, quarantined vehicles excluded.
  const core::GameState& observed_state() const noexcept { return observed_; }
  const std::vector<double>& x() const noexcept { return x_; }
  const std::vector<VehicleRecord>& fleet() const noexcept { return fleet_; }
  const ServiceCounters& counters() const noexcept { return counters_; }
  const faults::DegradedController& controller() const {
    return *controller_;
  }
  const cluster::IncrementalClustering* clustering() const noexcept {
    return &*clustering_;
  }
  /// Deferred-epoch streak of the clustering maintenance (0 = fresh).
  std::size_t staleness() const noexcept { return staleness_; }
  std::size_t quarantined_count() const;
  /// Backhaul transport counters; null when params().net is inert.
  const net::ExchangeChannel* channel() const noexcept {
    return channel_ ? &*channel_ : nullptr;
  }

  /// Checkpoint hooks (section checkpoint::kSectionService). load_state
  /// rejects snapshots from a differently-configured service and rebuilds
  /// the clustering from the serialized loads — equal to the pre-crash one
  /// by the incremental-equivalence contract.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  bool designated_attacker(std::uint64_t identity) const noexcept;
  /// The cold-start prefix init and init_from_source share: epoch, ids,
  /// counters, states, ratios, controller and backhaul back to zero, fleet
  /// emptied.
  void reset(const core::GameState& initial, std::vector<double> x0);
  /// The cold-start suffix: seeds the segment loads from the fleet's
  /// placement and re-derives every vehicle's region.
  void place_fleet();
  void apply_churn(std::size_t e, std::size_t& events);
  void apply_churn_exploit(std::size_t e);
  void maintain_clustering(std::size_t events);
  void reassign_regions();
  void rebuild_members();
  void snapshot_states();
  void revise(std::size_t e);
  void score_reputation();

  const core::MultiRegionGame& game_;
  const roadnet::RoadGraph* graph_;
  ServiceParams params_;
  faults::FaultModel inert_faults_;
  const faults::FaultModel* faults_;
  EventStream events_;
  std::optional<faults::DegradedController> controller_;
  std::optional<cluster::IncrementalClustering> clustering_;
  ThreadPool pool_;

  std::size_t epoch_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t staleness_ = 0;
  std::vector<VehicleRecord> fleet_;  // always sorted by id
  /// Load deltas accumulated while maintenance is shed; indexed by segment.
  std::vector<std::int64_t> pending_;
  /// members_[r] = fleet indices of region r's vehicles, id order. Scratch:
  /// rebuilt each epoch, capacity retained.
  std::vector<std::vector<std::size_t>> members_;
  /// Per-region start-of-epoch decision snapshots (revision scratch).
  std::vector<std::vector<core::DecisionId>> before_;
  std::vector<std::uint8_t> down_;  // this epoch's outage flags
  core::GameState state_;
  core::GameState observed_;
  std::vector<double> x_;
  ServiceCounters counters_;

  /// Degraded backhaul (params_.net.active()): region r publishes its
  /// observed report row on link r of a star topology whose hub is node
  /// num_regions (the cloud). The channel carries metadata; the rows live
  /// in the per-region report rings.
  std::optional<net::LinkModel> link_model_;
  std::optional<net::ExchangeChannel> channel_;
  net::PayloadRing<std::vector<double>> reports_;
  /// Scratch (not serialized): what the cloud acts on this epoch — the
  /// observed state with each region's row replaced by the newest
  /// consumable report — and the freshness mask handed to the wrapper.
  core::GameState net_observed_;
  std::vector<std::uint8_t> fresh_;

  /// Per-epoch scratch, hoisted so steady-state epochs allocate nothing
  /// once capacities are established: re-clustering deltas, the per-region
  /// claim tally, the weighted dispatch plan, per-region fitness rows, and
  /// the churn-exploit rebirth buffers.
  std::vector<cluster::LoadDelta> deltas_;
  std::vector<double> claim_counts_;
  std::vector<double> x_next_;
  std::vector<double> cost_;
  std::vector<std::vector<double>> q_;
  std::vector<std::size_t> exploiter_index_;
  std::vector<VehicleRecord> reborn_;
};

}  // namespace avcp::service
