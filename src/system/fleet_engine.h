// Million-vehicle sharded fleet engine (DESIGN.md §16).
//
// The class-aggregated data-plane kernel (DESIGN.md §11) made one round
// O(V·K); what remained between the repo and a 1M-vehicle round at
// interactive rates was memory layout and single-process structure. This
// engine supplies both:
//
//  - **SoA hot state.** Each shard owns one perception::FleetSoA — parallel
//    decision/claim/revoked/fitness/reputation arrays with all item sets in
//    one flat grow-only arena — instead of 2 heap ItemSets per vehicle.
//  - **Per-shard arenas, no cross-shard allocation.** A shard is the unit
//    of work dispatched over the fixed-lane ThreadPool (PR 8 chunked
//    claiming, one run_batch per round): its fleet, data plane, RNG
//    streams, round outcome, and reduction slots are all shard-owned, so
//    lanes never allocate from or write to another shard's memory.
//  - **Streaming ingestion.** Fleets arrive through core::FleetSource in
//    shard-sized batches and are routed to shards on arrival (shard =
//    id mod num_shards); the whole fleet is never materialised flat.
//
// Determinism is the same protocol as the other engines: every (round,
// shard) gets a hash-derived RNG stream, every shard writes only its own
// state, and the caller folds shard results in shard order — trajectories
// are bit-identical at every lane count (tests/determinism_test.cpp).
// Steady-state rounds are allocation-free after ingest (allocation_guard).
//
// Within a shard each round runs the paper's loop at fleet scale: synthesise
// the round's perception scene (constant-size contiguous collected/desired
// windows per vehicle — one uniform draw each, the cheapest street-scene
// model that keeps every set sorted and the arena exactly sized), run the
// shard's edge-server data plane at the commanded sharing ratio, fold
// fitness = beta·utility − exposed-privacy fraction (the same shape as
// system.cpp), then pairwise proportional imitation (core::imitate) within
// the shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "core/fleet_stream.h"
#include "core/lattice.h"
#include "net/exchange_channel.h"
#include "net/payload_ring.h"
#include "perception/data_plane.h"
#include "perception/fleet_soa.h"
#include "perception/measure.h"

namespace avcp::system {

struct FleetEngineParams {
  /// Shard count is a *partitioning* choice, fixed independently of lane
  /// count (shards are claimed by whichever lanes are free), so results
  /// never depend on the machine.
  std::size_t num_shards = 16;
  std::size_t num_sensors = 3;
  /// Universe size per sensor; Ω = num_sensors · items_per_sensor.
  std::size_t items_per_sensor = 128;
  /// Fraction of Ω each vehicle collects / desires per round (as one
  /// contiguous window, at least 1 item).
  double collect_fraction = 0.06;
  double desire_fraction = 0.03;
  double revision_rate = 0.5;
  double imitation_scale = 1.0;
  /// Fitness = beta · utility − exposed-privacy fraction.
  double beta = 2.5;
  /// EWMA reputation over realised utility.
  double reputation_decay = 0.9;
  std::uint64_t seed = 1;
  std::size_t num_threads = 1;
  /// False bypasses ThreadPool::clamped_lanes so tests and benches can
  /// exercise real oversubscribed lane counts (bit-identity at 1/2/8 lanes
  /// must be a real check even on a 1-core machine).
  bool clamp_lanes = true;
  /// Streaming-ingestion batch size (the peak transient above shard state).
  std::size_t ingest_batch = 8192;
  perception::DataPlaneMode mode = perception::DataPlaneMode::kClassAggregated;
  core::AccessRule access = core::AccessRule::kSubsetOrEqual;

  /// Inter-shard exchange over a degraded ring transport (DESIGN.md §17).
  /// Each round every shard samples a slice of its fleet and sends it to
  /// its ring successor through a net::ExchangeChannel; the receiver runs
  /// the directional data-plane kernel over the newest consumable sample
  /// (at most net.max_staleness rounds old) and folds the marginal utility
  /// into fitness before revision. Off by default: the round loop is then
  /// the single fused two-stage dispatch and bit-identical to the
  /// pre-transport engine. Requires num_shards >= 2 when on.
  bool inter_shard_exchange = false;
  /// Fraction of a shard's vehicles copied into its outbound sample.
  double exchange_fraction = 0.05;
  /// Hard cap on the sample size (bounds per-round payload copies).
  std::size_t exchange_sample_cap = 256;
  net::NetParams net;
};

/// Per-round aggregate over the whole fleet, folded in shard order.
struct FleetRoundStats {
  std::size_t vehicles = 0;
  double mean_utility = 0.0;
  double mean_privacy = 0.0;
  double exposed_privacy = 0.0;  // summed over shards (disjoint cells)
  double mean_fitness = 0.0;
  double mean_reputation = 0.0;
  std::size_t deliveries = 0;
  /// Post-revision share of each decision class (size K).
  std::vector<double> decision_share;

  /// Inter-shard exchange accounting (all 0 when the transport is off):
  /// summed marginal utility receivers gained from ring samples, this
  /// round's channel delivery/drop counts, and how many shards had no
  /// consumable sample (blind).
  double cross_utility = 0.0;
  std::size_t net_delivered = 0;
  std::size_t net_dropped = 0;
  std::size_t net_blind = 0;
};

class ShardedFleetEngine {
 public:
  explicit ShardedFleetEngine(FleetEngineParams params);

  /// Streams the source into the shards in `ingest_batch`-sized pulls.
  /// May be called repeatedly to append; the next run_round re-prepares
  /// workspaces and the dispatch plan.
  void ingest(core::FleetSource& source);

  std::size_t size() const noexcept { return total_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  const perception::FleetSoA& shard_fleet(std::size_t s) const {
    return shards_[s].fleet;
  }

  /// Runs one fleet-wide round at the given sharing ratio. Zero-allocation
  /// in steady state: `out`'s vectors are reused.
  void run_round_into(double sharing_ratio, FleetRoundStats& out);
  FleetRoundStats run_round(double sharing_ratio);

  /// FNV-1a over every shard's post-round hot state (decisions, fitness,
  /// reputation bits) in shard order — the bit-identity probe used by
  /// bench_fleet and the determinism tests.
  std::uint64_t state_hash() const noexcept;

  /// Ring transport counters; null when inter_shard_exchange is off.
  const net::ExchangeChannel* channel() const noexcept {
    return channel_ ? &*channel_ : nullptr;
  }

 private:
  struct Shard {
    perception::FleetSoA fleet;
    std::unique_ptr<perception::EdgeServerDataPlane> plane;
    perception::RoundOutcome outcome;
    perception::EdgeServerDataPlane::DirectionalOutcome dout;
    std::vector<core::DecisionId> before;    // revision snapshot
    std::vector<std::uint32_t> hist;         // post-revision class counts
    // Shard-owned reduction slots, folded by the caller in shard order.
    double sum_utility = 0.0;
    double sum_privacy = 0.0;
    double exposed_privacy = 0.0;
    double sum_fitness = 0.0;
    double sum_reputation = 0.0;
    std::size_t deliveries = 0;
    double cross_utility = 0.0;
    std::uint8_t net_blind = 0;
  };

  /// One outbound sample payload and the ratio it was produced under.
  struct Sample {
    double x = 0.0;
    perception::FleetSoA fleet;
  };

  /// Finishes ingestion: reserves every shard's arena and data-plane
  /// workspace to its exact per-round footprint and builds the
  /// cost-balanced chunk plan (per-shard cost = vehicles · K).
  void prepare();
  /// Stage A (per shard): synthesise the round scene, run the data plane,
  /// fold fitness/reputation into shard slots.
  void exchange_shard(std::size_t s, double sharing_ratio);
  /// Stage B (per shard): pairwise proportional imitation + histogram.
  void revise_shard(std::size_t s);
  /// Transport consume (start of stage B, channel on): run the directional
  /// kernel over the predecessor's newest consumable sample and fold the
  /// marginal utility into fitness before revision.
  void consume_shard(std::size_t s);

  FleetEngineParams params_;
  core::DecisionLattice lattice_;
  perception::DataUniverse universe_;
  ThreadPool pool_;
  std::optional<net::LinkModel> link_model_;
  std::optional<net::ExchangeChannel> channel_;
  net::PayloadRing<Sample> samples_;
  std::vector<Shard> shards_;
  std::vector<double> shard_cost_;
  std::vector<std::uint32_t> chunk_plan_;
  perception::ItemSet no_server_items_;
  perception::CellFaultMask no_faults_;
  std::size_t total_ = 0;
  std::size_t round_ = 0;
  std::uint32_t collect_window_ = 1;
  std::uint32_t desire_window_ = 1;
  bool prepared_ = false;
};

}  // namespace avcp::system
