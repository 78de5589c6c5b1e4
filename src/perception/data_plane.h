// Edge-server data plane executing the lattice-based sharing policy
// (paper §II framework steps S2/4/5 and §III policy implementation).
//
// Each round, every vehicle uploads the part of its collected data selected
// by its decision; the edge server then distributes vehicle b's upload to
// vehicle a with probability x iff a's decision precedes b's in the lattice
// (P^{k_b} ⊆ P^{k_a}). The outcome records each vehicle's realised utility
// h_a = f_a(own ∪ received), privacy cost c_a = g(shared), and the
// passive-eavesdropper exposure (everything visible at the server — the
// paper's threat model).
//
// Two kernels implement the distribution phase (DataPlaneMode):
//
//  - kPairwiseExact (default): the literal O(receivers × senders) loop, one
//    Bernoulli(x) draw per readable ordered pair. The reference semantics;
//    its RNG draw order is a documented contract (below).
//  - kClassAggregated: readability and upload content depend only on the
//    *decision class* (K = 2^N classes), not on vehicle identity, so the
//    pairwise loop collapses to per-class aggregates: a per-round
//    CompositionTable buckets vehicles by claimed class, pools uploads per
//    class, and each receiver consumes one Binomial(n_class, x) draw per
//    readable sender class (deliveries) plus one Bernoulli per candidate
//    desired item with inclusion probability 1 - (1-x)^c, where c counts
//    the readable uploads carrying the item. Item-level *marginals* are
//    exactly those of the pairwise kernel, so mean utility, mean privacy,
//    exposure, and expected deliveries match exactly; joint laws (variance
//    across items of one sender's upload) are approximated — see
//    DESIGN.md §11 for when the construction is exact vs in-distribution.
//    Per-pair delivery-loss masks cannot be class-aggregated; callers fall
//    back to the exact kernel when such faults are active.
//
// ## RNG draw-order contract (kPairwiseExact)
//
// The distribution phase consumes exactly one Bernoulli draw per readable
// ordered (receiver, sender) pair — receivers ascending in the outer loop,
// senders ascending in the inner loop, self-pairs excluded — regardless of
// upload contents, fault masks, or workspace reuse. Draws cannot be elided
// for senders with empty uploads (eliding would shift every later pair's
// draw), so the empty-upload fast path skips only the work *after* the
// draw: the delivery-loss probe, delivery bookkeeping, and the buffer
// append. Readability itself never consumes randomness (it is a
// precomputed K×K table over claimed classes), a revoked receiver consumes
// no draws (its sender loop is skipped entirely — revocation only occurs
// on the already-perturbed Byzantine path), and x <= 0 or x >= 1 consumes
// no draws at all (Rng::bernoulli short-circuits). The aggregated kernel
// owns a different stream layout (per receiver: binomials per readable
// class in ascending class order, then item Bernoullis in ascending
// desired-item order) and promises determinism, not pairwise bit-identity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/lattice.h"
#include "perception/fleet_soa.h"
#include "perception/measure.h"

namespace avcp::perception {

/// Which kernel runs the distribution phase of a data-sharing round.
enum class DataPlaneMode : std::uint8_t {
  /// Reference O(V^2) per-pair loop; bit-stable draw order (see above).
  kPairwiseExact = 0,
  /// O(V·K) class-aggregated kernel; equal in distribution at item
  /// granularity, deterministic, but not draw-compatible with the exact
  /// kernel.
  kClassAggregated = 1,
};

/// Result of one data-sharing round in one cell.
struct RoundOutcome {
  std::vector<double> utility;  // h_a per vehicle, in [0, 1]
  std::vector<double> privacy;  // c_a per vehicle, in [0, 1]
  /// Unique items uploaded to the server this round (eavesdropper view).
  std::size_t exposed_items = 0;
  /// Privacy mass of the exposed items, normalised like g.
  double exposed_privacy = 0.0;
  /// Item deliveries performed (sum over receivers of received items).
  std::size_t deliveries = 0;
  /// Vehicle uploads dropped on the uplink (fault injection; 0 when clean).
  std::size_t uploads_lost = 0;
  /// Items dropped on the downlink after acceptance (fault injection).
  std::size_t deliveries_lost = 0;

  /// Population averages.
  double mean_utility() const;
  double mean_privacy() const;
};

/// Pre-resolved per-cell fault mask (see faults::FaultModel; perception
/// stays independent of the fault layer by taking plain booleans). Empty
/// vectors mean "no faults": a round then follows exactly the clean code
/// path, consuming the same RNG stream.
struct CellFaultMask {
  /// upload_lost[b]: vehicle b's upload never reaches the server — it
  /// contributes nothing to the pool and costs b no privacy.
  std::vector<std::uint8_t> upload_lost;
  /// delivery_lost[a * n + b]: the accepted distribution of b's upload to
  /// receiver a is lost in flight — a's utility suffers, b's privacy was
  /// already spent at the server. Per-pair, hence incompatible with the
  /// class-aggregated kernel (callers use kPairwiseExact when set).
  std::vector<std::uint8_t> delivery_lost;

  bool empty() const noexcept {
    return upload_lost.empty() && delivery_lost.empty();
  }
};

/// Concurrency: a plane owns its RNG and per-round workspace buffers, so
/// *distinct* plane instances may run rounds concurrently (the system fans
/// one plane per edge server out over its thread pool); a single instance
/// is not thread-safe.
///
/// Allocation: both round entry points reuse an internal workspace whose
/// buffers are grown to the high-water mark and never shrunk, and the
/// caller's outcome vectors, so repeated rounds over same-shaped fleets
/// perform zero heap allocations after the first (warm-up) round —
/// regression-locked in tests/allocation_guard_test.
class EdgeServerDataPlane {
 public:
  /// `lattice` and `universe` must outlive the plane.
  EdgeServerDataPlane(const core::DecisionLattice& lattice,
                      const DataUniverse& universe,
                      core::AccessRule access = core::AccessRule::kSubsetOrEqual,
                      std::uint64_t seed = 1);

  /// Runs one upload/distribute round at sharing ratio x with the selected
  /// kernel into `out`, reusing its vectors.
  ///
  /// `server_items` (sorted, unique) is the edge server's own perception
  /// (the paper's §VII second future-work item: roadside infrastructure
  /// perceives its surroundings and distributes the result to bypassing
  /// vehicles). Server items reach every vehicle unconditionally —
  /// infrastructure data carries no passenger privacy cost and is outside
  /// the lattice incentive loop.
  ///
  /// Uploads and deliveries flagged in `mask` are lost; an empty mask is
  /// the clean round. kClassAggregated is equal to kPairwiseExact in
  /// distribution at item granularity, O(V·K) in the fleet, and requires
  /// `mask.delivery_lost` to be empty (per-pair faults cannot be
  /// aggregated; callers fall back to the exact kernel).
  void run_round_into(const FleetView& fleet, double sharing_ratio,
                      const CellFaultMask& mask, const ItemSet& server_items,
                      DataPlaneMode mode, RoundOutcome& out);

  /// Pre-grows the per-round workspace for fleets of up to `vehicles`
  /// vehicles carrying at most `items_per_vehicle` collected items each.
  /// Optional: buffers reach their high-water mark after one warm-up round
  /// anyway; pre-reserving makes even the first round allocation-free
  /// (the sharded fleet engine reserves at ingest time).
  void reserve_workspace(std::size_t vehicles, std::size_t items_per_vehicle);

  /// The items a vehicle holding `collected` would upload under
  /// `decision` (S_a ∩ P^{k_a}).
  ItemSet shared_items(core::DecisionId decision,
                       std::span<const ItemId> collected) const;

  /// Result of a directional (cross-cell) round: senders upload, receivers
  /// receive; nothing flows the other way.
  struct DirectionalOutcome {
    /// Marginal utility per receiver: f_a of the newly received items
    /// (already-held items excluded), in [0, 1].
    std::vector<double> marginal_utility;
    std::size_t deliveries = 0;
  };

  /// One direction of the paper's inter-region exchange (Fig. 5, Eq. (4)'s
  /// x_j * gamma_ji term): vehicles of a *neighbouring* cell act as senders
  /// and this cell's vehicles as receivers, at the sender cell's sharing
  /// ratio, into `out` (vectors reused). Lattice admissibility applies as
  /// usual. The exact kernel's draw order is one Bernoulli per readable
  /// (receiver, sender) pair, receivers outer ascending, senders inner
  /// ascending.
  void run_directional_into(const FleetView& senders,
                            const FleetView& receivers, double sharing_ratio,
                            DataPlaneMode mode, DirectionalOutcome& out);

  /// Checkpoint hooks: the plane's only cross-round state is its RNG
  /// stream position (the workspace is per-round scratch; the readability
  /// table and masks are derived from the lattice at construction).
  void save_state(Serializer& s) const { rng_.save_state(s); }
  void load_state(Deserializer& d) { rng_.load_state(d); }

 private:
  /// Per-round scratch reused across rounds (grown, never shrunk). Uploads
  /// live in one flat arena indexed by exclusive per-vehicle end offsets —
  /// the SoA counterpart of the old vector<ItemSet> (which cost one heap
  /// vector per vehicle and pointer-dense kernel reads at fleet scale).
  struct Workspace {
    /// Decision-filtered uploads, concatenated in vehicle order; vehicle
    /// b's upload spans [upload_end[b-1], upload_end[b]) (0 for b == 0).
    std::vector<ItemId> upload_data;
    std::vector<std::uint32_t> upload_end;
    /// seen[id] != 0 iff some upload carried `id` this round: the
    /// eavesdropper view as a dense flag array instead of a sorted union
    /// (the union's sort was O(total upload items · log) per round — the
    /// dominant cost at engine scale; the ascending flag walk reproduces
    /// privacy_cost's summation order bit-for-bit).
    std::vector<std::uint8_t> seen;
    ItemSet received;  // exact path: per-receiver gather buffer
    ItemSet scratch;   // exact directional: received \ collected
    /// Claimed decision class per vehicle (this round).
    std::vector<core::DecisionId> cls;
    /// CompositionTable (aggregated kernel), rebuilt per round:
    std::vector<std::uint32_t> class_senders;  // per class: non-empty uploads
    std::vector<std::size_t> class_items;      // per class: pooled item count
    std::vector<std::uint32_t> item_count;     // [class][item]: upload copies
    std::vector<std::uint32_t> recv_count;     // [recv class][item]: readable
    std::vector<double> miss_pow;              // (1-x)^c for small c
    /// [recv class][item]: (1-x)^recv_count, hoisting the std::pow fallback
    /// (recv_count >= 64 at fleet scale) out of the per-candidate loop.
    /// Built only for fleets large enough to amortise the K·Ω fill; every
    /// entry is item_miss_prob evaluated verbatim, so using the table is
    /// bit-identical to not using it.
    std::vector<double> miss_table;
  };

  /// Appends collected ∩ P^decision to `out` via the per-decision sensor
  /// bitmask (no per-item lattice_.shares call).
  void append_shared(core::DecisionId decision,
                     std::span<const ItemId> collected,
                     std::vector<ItemId>& out) const;
  /// Vehicle b's upload this round (into ws_.upload_data).
  std::span<const ItemId> upload(std::size_t b) const noexcept {
    const std::uint32_t end = ws_.upload_end[b];
    const std::uint32_t begin = b == 0 ? 0 : ws_.upload_end[b - 1];
    return {ws_.upload_data.data() + begin, end - begin};
  }

  /// Upload phase shared by both kernels (identical results and — trivially,
  /// it consumes no randomness — identical RNG state).
  void upload_phase(const FleetView& fleet, const CellFaultMask& mask,
                    RoundOutcome& out);
  /// Fills ws_.cls with claimed classes (validated against the lattice).
  void classify(const FleetView& fleet);
  /// Builds the per-class CompositionTable from the first `num_senders`
  /// uploads / ws_.cls entries (the buffers are high-water-marked and may
  /// hold stale rows from a larger earlier round).
  void build_composition_table(std::size_t num_senders);
  /// Precomputes ws_.miss_pow[c] = (1-x)^c for c in [0, kMissPowCache).
  void build_miss_pow(double sharing_ratio);
  /// Fills ws_.miss_table from ws_.recv_count (see Workspace::miss_table).
  void build_miss_table(double sharing_ratio);
  double item_miss_prob(double sharing_ratio, std::uint32_t c) const;

  void run_round_exact(const FleetView& fleet, double sharing_ratio,
                       const CellFaultMask& mask, const ItemSet& server_items,
                       RoundOutcome& out);
  void run_round_class_aggregated(const FleetView& fleet, double sharing_ratio,
                                  const ItemSet& server_items,
                                  RoundOutcome& out);
  void run_directional_exact(const FleetView& senders,
                             const FleetView& receivers, double sharing_ratio,
                             DirectionalOutcome& out);
  void run_directional_class_aggregated(const FleetView& senders,
                                        const FleetView& receivers,
                                        double sharing_ratio,
                                        DirectionalOutcome& out);

  const core::DecisionLattice& lattice_;
  const DataUniverse& universe_;
  core::AccessRule access_;
  Rng rng_;
  /// readable_[k * K + l]: receiver class k may read sender class l under
  /// access_ (constant for the plane's lifetime).
  std::vector<std::uint8_t> readable_;
  /// Per-decision shared-sensor bitmask (lattice_.mask hoisted out of the
  /// per-item loop) and per-item sensor bit, both filled at construction:
  /// the universe must not grow afterwards (rounds check it).
  std::vector<core::SensorMask> decision_masks_;
  std::vector<core::SensorMask> item_bits_;
  Workspace ws_;
};

}  // namespace avcp::perception
