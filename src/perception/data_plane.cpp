#include "perception/data_plane.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/simd.h"
#include "common/stats.h"

namespace avcp::perception {

namespace {

constexpr std::size_t kMissPowCache = 64;

/// Fleets below this size keep the per-candidate item_miss_prob call; at or
/// above it the K·Ω miss_table fill is amortised across enough receivers to
/// win. A pure perf switch: both paths compute identical doubles.
constexpr std::size_t kMissTableMinFleet = 2048;

void sort_unique(ItemSet& s) {
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
}

}  // namespace

double RoundOutcome::mean_utility() const {
  return mean(std::span<const double>(utility));
}

double RoundOutcome::mean_privacy() const {
  return mean(std::span<const double>(privacy));
}

EdgeServerDataPlane::EdgeServerDataPlane(const core::DecisionLattice& lattice,
                                         const DataUniverse& universe,
                                         core::AccessRule access,
                                         std::uint64_t seed)
    : lattice_(lattice), universe_(universe), access_(access), rng_(seed) {
  AVCP_EXPECT(universe.num_sensors() == lattice.num_sensors());
  const std::size_t k = lattice.num_decisions();
  readable_.resize(k * k);
  for (core::DecisionId a = 0; a < k; ++a) {
    for (core::DecisionId b = 0; b < k; ++b) {
      readable_[a * k + b] = access == core::AccessRule::kSubsetOrEqual
                                 ? lattice.preceq(a, b)
                                 : lattice.precedes(a, b);
    }
  }
  decision_masks_.resize(k);
  for (core::DecisionId d = 0; d < k; ++d) decision_masks_[d] = lattice.mask(d);
  item_bits_.resize(universe.size());
  for (ItemId id = 0; id < universe.size(); ++id) {
    item_bits_[id] = lattice.sensor_bit(universe.item(id).sensor);
  }
}

void EdgeServerDataPlane::append_shared(core::DecisionId decision,
                                        std::span<const ItemId> collected,
                                        std::vector<ItemId>& out) const {
  AVCP_EXPECT(decision < lattice_.num_decisions());
  AVCP_EXPECT(is_sorted_unique(collected));
  const core::SensorMask dmask = decision_masks_[decision];
  for (const ItemId id : collected) {
    AVCP_EXPECT(id < item_bits_.size());
    if ((dmask & item_bits_[id]) != 0) out.push_back(id);
  }
}

ItemSet EdgeServerDataPlane::shared_items(
    core::DecisionId decision, std::span<const ItemId> collected) const {
  ItemSet shared;
  append_shared(decision, collected, shared);
  return shared;
}

void EdgeServerDataPlane::reserve_workspace(std::size_t vehicles,
                                            std::size_t items_per_vehicle) {
  const std::size_t k = lattice_.num_decisions();
  const std::size_t omega = universe_.size();
  ws_.upload_data.reserve(vehicles * items_per_vehicle);
  ws_.upload_end.reserve(vehicles);
  ws_.seen.reserve(omega);
  ws_.cls.reserve(vehicles);
  ws_.class_senders.reserve(k);
  ws_.class_items.reserve(k);
  ws_.item_count.reserve(k * omega);
  ws_.recv_count.reserve(k * omega);
  ws_.miss_pow.reserve(kMissPowCache);
  ws_.miss_table.reserve(k * omega);
}

void EdgeServerDataPlane::run_round_into(const FleetView& fleet,
                                         double sharing_ratio,
                                         const CellFaultMask& mask,
                                         const ItemSet& server_items,
                                         DataPlaneMode mode, RoundOutcome& out) {
  AVCP_EXPECT(sharing_ratio >= 0.0 && sharing_ratio <= 1.0);
  AVCP_EXPECT(is_sorted_unique(server_items));
  const std::size_t n = fleet.size();
  AVCP_EXPECT(mask.upload_lost.empty() || mask.upload_lost.size() == n);
  AVCP_EXPECT(item_bits_.size() == universe_.size());

  out.utility.assign(n, 0.0);
  out.privacy.assign(n, 0.0);
  out.exposed_items = 0;
  out.exposed_privacy = 0.0;
  out.deliveries = 0;
  out.uploads_lost = 0;
  out.deliveries_lost = 0;

  // Upload phase (framework step 4): decision-filtered collected data. A
  // lost upload never reaches the server: it shrinks the pool, is invisible
  // to the eavesdropper, and costs its vehicle no privacy.
  // A quarantined vehicle's upload is accepted, exposed, and redistributed
  // like any other: items are raw sensor readings the server can verify,
  // while quarantine distrusts the vehicle's self-declared *report* and
  // punishes it on the receive side only. Impounding the uploads too would
  // let a telemetry liar's (perfectly good) data vanish from the pool —
  // at high attacker fractions that starves honest receivers and collapses
  // the sharing equilibrium the controller is holding. Keeping the upload
  // also keeps its mass observable to the behavioural audit, so a falsely
  // flagged honest vehicle can rehabilitate. The phase is identical for
  // both kernels (it consumes no randomness).
  upload_phase(fleet, mask, out);
  classify(fleet);

  if (mode == DataPlaneMode::kClassAggregated) {
    AVCP_EXPECT(mask.delivery_lost.empty());
    run_round_class_aggregated(fleet, sharing_ratio, server_items, out);
    return;
  }
  AVCP_EXPECT(mask.delivery_lost.empty() || mask.delivery_lost.size() == n * n);
  run_round_exact(fleet, sharing_ratio, mask, server_items, out);
}

void EdgeServerDataPlane::upload_phase(const FleetView& fleet,
                                       const CellFaultMask& mask,
                                       RoundOutcome& out) {
  const std::size_t n = fleet.size();
  const std::size_t omega = universe_.size();
  ws_.upload_data.clear();
  if (ws_.upload_end.size() < n) ws_.upload_end.resize(n);
  ws_.seen.assign(omega, 0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t begin = ws_.upload_data.size();
    if (!mask.upload_lost.empty() && mask.upload_lost[a]) {
      ++out.uploads_lost;
      ws_.upload_end[a] = static_cast<std::uint32_t>(begin);
      continue;
    }
    append_shared(fleet.decision[a], fleet.collected_of(a), ws_.upload_data);
    ws_.upload_end[a] = static_cast<std::uint32_t>(ws_.upload_data.size());
    for (std::size_t i = begin; i < ws_.upload_data.size(); ++i) {
      ws_.seen[ws_.upload_data[i]] = 1;
    }
    out.privacy[a] = privacy_cost(
        universe_, std::span<const ItemId>(ws_.upload_data).subspan(begin));
  }
  // Eavesdropper view: everything any upload carried. The ascending flag
  // walk sums privacy weights in exactly the order privacy_cost walks the
  // old sorted union, so exposure is bit-identical to the sort-based path
  // without the O(total·log) per-round sort.
  std::size_t exposed = 0;
  double exposed_mass = 0.0;
  for (ItemId id = 0; id < omega; ++id) {
    if (ws_.seen[id] == 0) continue;
    ++exposed;
    exposed_mass += universe_.item(id).privacy_weight;
  }
  out.exposed_items = exposed;
  const double total = universe_.total_privacy_weight();
  out.exposed_privacy = total > 0.0 ? exposed_mass / total : 0.0;
}

void EdgeServerDataPlane::classify(const FleetView& fleet) {
  const std::size_t k = lattice_.num_decisions();
  if (ws_.cls.size() < fleet.size()) ws_.cls.resize(fleet.size());
  for (std::size_t v = 0; v < fleet.size(); ++v) {
    const core::DecisionId c = fleet.claimed(v);
    AVCP_EXPECT(c < k);
    ws_.cls[v] = c;
  }
}

void EdgeServerDataPlane::run_round_exact(const FleetView& fleet,
                                          double sharing_ratio,
                                          const CellFaultMask& mask,
                                          const ItemSet& server_items,
                                          RoundOutcome& out) {
  const std::size_t n = fleet.size();
  const std::size_t k = lattice_.num_decisions();

  // Distribution phase (step 5): b's upload reaches a with probability x
  // iff a's decision shares at least b's sensor types. A delivery lost on
  // the downlink drops after acceptance: the Bernoulli draw is consumed
  // either way, so a clean run and a delivery-loss run share the upload
  // phase bit-for-bit. See the draw-order contract in data_plane.h: one
  // draw per readable ordered pair, regardless of upload contents.
  ItemSet& received = ws_.received;
  for (std::size_t a = 0; a < n; ++a) {
    // Gather all accepted uploads first, then sort/deduplicate once — a
    // per-sender set_union would make large cells quadratic in fleet size.
    // Access control runs on *claimed* decisions: the server cannot verify
    // what a vehicle withholds, only what it declares. A quarantined
    // receiver is served nothing (and consumes no distribution draws;
    // revocation only ever happens on the already-perturbed Byzantine
    // path, so the clean path's RNG stream is untouched).
    const std::span<const ItemId> collected = fleet.collected_of(a);
    const std::span<const ItemId> desired = fleet.desired_of(a);
    AVCP_EXPECT(is_sorted_unique(collected));
    AVCP_EXPECT(is_sorted_unique(desired));
    received.clear();
    received.insert(received.end(), collected.begin(), collected.end());
    received.insert(received.end(), server_items.begin(), server_items.end());
    if (fleet.revoked[a] != 0) {
      sort_unique(received);
      if (!desired.empty()) {
        out.utility[a] = measured_utility(universe_, received, desired);
      }
      continue;
    }
    const std::size_t row = ws_.cls[a] * k;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      if (readable_[row + ws_.cls[b]] == 0) continue;
      if (!rng_.bernoulli(sharing_ratio)) continue;
      const std::span<const ItemId> up = upload(b);
      // Empty upload: the draw above is already consumed (contract), so
      // the loss probe, delivery bookkeeping, and append can be skipped
      // without perturbing the stream.
      if (up.empty()) continue;
      if (!mask.delivery_lost.empty() && mask.delivery_lost[a * n + b]) {
        out.deliveries_lost += up.size();
        continue;
      }
      out.deliveries += up.size();
      received.insert(received.end(), up.begin(), up.end());
    }
    sort_unique(received);
    if (!desired.empty()) {
      out.utility[a] = measured_utility(universe_, received, desired);
    } else {
      out.utility[a] = 0.0;  // nothing desired: utility trivially zero
    }
  }
}

void EdgeServerDataPlane::build_composition_table(std::size_t num_senders) {
  const std::size_t k = lattice_.num_decisions();
  const std::size_t omega = universe_.size();
  ws_.class_senders.assign(k, 0);
  ws_.class_items.assign(k, 0);
  ws_.item_count.assign(k * omega, 0);
  for (std::size_t b = 0; b < num_senders; ++b) {
    const std::span<const ItemId> up = upload(b);
    if (up.empty()) continue;
    const core::DecisionId l = ws_.cls[b];
    ++ws_.class_senders[l];
    ws_.class_items[l] += up.size();
    std::uint32_t* row = ws_.item_count.data() + l * omega;
    for (const ItemId id : up) ++row[id];
  }
  ws_.recv_count.assign(k * omega, 0);
  for (core::DecisionId r = 0; r < k; ++r) {
    std::uint32_t* dst = ws_.recv_count.data() + r * omega;
    for (core::DecisionId l = 0; l < k; ++l) {
      if (readable_[r * k + l] == 0 || ws_.class_items[l] == 0) continue;
      const std::uint32_t* src = ws_.item_count.data() + l * omega;
      // Exact integer merge of the class's per-item upload counts into
      // the receiver row — SIMD-safe, no FP involved.
      simd::add_u32(dst, src, omega);
    }
  }
}

void EdgeServerDataPlane::build_miss_pow(double sharing_ratio) {
  const double q = 1.0 - sharing_ratio;
  ws_.miss_pow.assign(kMissPowCache, 1.0);
  for (std::size_t c = 1; c < kMissPowCache; ++c) {
    ws_.miss_pow[c] = ws_.miss_pow[c - 1] * q;
  }
}

void EdgeServerDataPlane::build_miss_table(double sharing_ratio) {
  const std::size_t k = lattice_.num_decisions();
  const std::size_t omega = universe_.size();
  ws_.miss_table.resize(k * omega);
  for (std::size_t i = 0; i < k * omega; ++i) {
    ws_.miss_table[i] = item_miss_prob(sharing_ratio, ws_.recv_count[i]);
  }
}

double EdgeServerDataPlane::item_miss_prob(double sharing_ratio,
                                           std::uint32_t c) const {
  if (c < kMissPowCache) return ws_.miss_pow[c];
  return std::pow(1.0 - sharing_ratio, static_cast<double>(c));
}

// The class-aggregated kernel. Uploads, privacy, and exposure are computed
// exactly as in the pairwise kernel (shared upload phase). Distribution is
// collapsed onto the CompositionTable:
//
//  - deliveries: the number of class-l senders serving receiver a is
//    Binomial(n_l, x) (independent Bernoulli(x) per sender); the delivered
//    item count is approximated by m * (U_l / n_l) — exact in expectation
//    (x * U_l), the per-sender size spread is averaged out.
//  - received items: a candidate desired item carried by c readable uploads
//    is received with probability 1 - (1-x)^c, matching the pairwise
//    marginal exactly; cross-item correlation (items travelling together in
//    one sender's upload) is dropped, which is why the aggregated kernel is
//    exact in the mean and in every per-item marginal but only approximate
//    in higher moments (and fully exact at x = 0 and x = 1, or when every
//    upload carries at most one item). See DESIGN.md §11.
//
// Self-delivery needs no correction on the utility side: a receiver's own
// upload is a subset of its collected set, and collected items are already
// excluded from the candidate walk.
void EdgeServerDataPlane::run_round_class_aggregated(
    const FleetView& fleet, double sharing_ratio, const ItemSet& server_items,
    RoundOutcome& out) {
  const std::size_t n = fleet.size();
  const std::size_t k = lattice_.num_decisions();
  const std::size_t omega = universe_.size();
  build_composition_table(n);
  build_miss_pow(sharing_ratio);
  const bool use_table = n >= kMissTableMinFleet;
  if (use_table) build_miss_table(sharing_ratio);

  double deliveries_acc = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    const std::span<const ItemId> collected = fleet.collected_of(a);
    const std::span<const ItemId> desired = fleet.desired_of(a);
    const bool revoked = fleet.revoked[a] != 0;
    AVCP_EXPECT(is_sorted_unique(collected));
    AVCP_EXPECT(is_sorted_unique(desired));
    const core::DecisionId cls_a = ws_.cls[a];

    // Deliveries: one Binomial(n_l, x) draw per readable sender class, in
    // ascending class order (the aggregated draw-order contract). A
    // revoked receiver is served nothing and consumes no draws.
    if (!revoked) {
      const std::size_t my_upload = upload(a).size();
      for (core::DecisionId l = 0; l < k; ++l) {
        if (readable_[cls_a * k + l] == 0) continue;
        std::uint32_t senders = ws_.class_senders[l];
        std::size_t pool = ws_.class_items[l];
        if (l == cls_a && my_upload > 0) {
          --senders;
          pool -= my_upload;
        }
        if (senders == 0 || pool == 0) continue;
        const std::uint64_t m = rng_.binomial(senders, sharing_ratio);
        deliveries_acc += static_cast<double>(m) *
                          (static_cast<double>(pool) /
                           static_cast<double>(senders));
      }
    }

    // Utility: walk the desired set once (ascending), folding in the
    // deterministic part (own collection and server items) and one
    // Bernoulli per remaining candidate item with inclusion probability
    // 1 - (1-x)^c. Summation order matches the exact kernel (ascending
    // item ids, one accumulator).
    if (desired.empty()) {
      out.utility[a] = 0.0;
      continue;
    }
    const std::uint32_t* counts = ws_.recv_count.data() + cls_a * omega;
    const double* miss_row =
        use_table ? ws_.miss_table.data() + cls_a * omega : nullptr;
    double num = 0.0;
    double den = 0.0;
    std::size_t pc = 0;  // cursor into collected
    std::size_t ps = 0;  // cursor into server_items
    for (const ItemId d : desired) {
      const double w = universe_.item(d).utility_weight;
      den += w;
      while (pc < collected.size() && collected[pc] < d) ++pc;
      while (ps < server_items.size() && server_items[ps] < d) ++ps;
      const bool held = (pc < collected.size() && collected[pc] == d) ||
                        (ps < server_items.size() && server_items[ps] == d);
      if (held) {
        num += w;
        continue;
      }
      if (revoked) continue;
      const std::uint32_t c = counts[d];
      if (c == 0) continue;
      const double miss =
          miss_row ? miss_row[d] : item_miss_prob(sharing_ratio, c);
      // bernoulli short-circuits at p <= 0 and p >= 1 (x = 1 with c >= 1
      // is deterministic delivery, exactly like the pairwise kernel).
      if (rng_.bernoulli(1.0 - miss)) num += w;
    }
    AVCP_ENSURE(den > 0.0);
    out.utility[a] = num / den;
  }
  out.deliveries = static_cast<std::size_t>(std::llround(deliveries_acc));
}

void EdgeServerDataPlane::run_directional_into(const FleetView& senders,
                                               const FleetView& receivers,
                                               double sharing_ratio,
                                               DataPlaneMode mode,
                                               DirectionalOutcome& out) {
  AVCP_EXPECT(sharing_ratio >= 0.0 && sharing_ratio <= 1.0);
  AVCP_EXPECT(item_bits_.size() == universe_.size());
  out.marginal_utility.assign(receivers.size(), 0.0);
  out.deliveries = 0;

  const std::size_t ns = senders.size();
  ws_.upload_data.clear();
  if (ws_.upload_end.size() < ns) ws_.upload_end.resize(ns);
  for (std::size_t b = 0; b < ns; ++b) {
    append_shared(senders.decision[b], senders.collected_of(b),
                  ws_.upload_data);
    ws_.upload_end[b] = static_cast<std::uint32_t>(ws_.upload_data.size());
  }
  classify(senders);

  if (mode == DataPlaneMode::kClassAggregated) {
    run_directional_class_aggregated(senders, receivers, sharing_ratio, out);
    return;
  }
  run_directional_exact(senders, receivers, sharing_ratio, out);
}

void EdgeServerDataPlane::run_directional_exact(const FleetView& senders,
                                                const FleetView& receivers,
                                                double sharing_ratio,
                                                DirectionalOutcome& out) {
  const std::size_t k = lattice_.num_decisions();
  ItemSet& received = ws_.received;
  for (std::size_t a = 0; a < receivers.size(); ++a) {
    if (receivers.revoked[a] != 0) continue;
    const std::span<const ItemId> collected = receivers.collected_of(a);
    const std::span<const ItemId> desired = receivers.desired_of(a);
    AVCP_EXPECT(is_sorted_unique(collected));
    AVCP_EXPECT(is_sorted_unique(desired));
    const core::DecisionId cls_r = receivers.claimed(a);
    AVCP_EXPECT(cls_r < k);
    received.clear();
    for (std::size_t b = 0; b < senders.size(); ++b) {
      if (readable_[cls_r * k + ws_.cls[b]] == 0) continue;
      if (!rng_.bernoulli(sharing_ratio)) continue;
      const std::span<const ItemId> up = upload(b);
      if (up.empty()) continue;  // draw already consumed (contract)
      out.deliveries += up.size();
      received.insert(received.end(), up.begin(), up.end());
    }
    sort_unique(received);
    ws_.scratch.clear();
    std::set_difference(received.begin(), received.end(), collected.begin(),
                        collected.end(), std::back_inserter(ws_.scratch));
    if (!ws_.scratch.empty() && !desired.empty()) {
      out.marginal_utility[a] =
          measured_utility(universe_, ws_.scratch, desired);
    }
  }
}

void EdgeServerDataPlane::run_directional_class_aggregated(
    const FleetView& senders, const FleetView& receivers,
    double sharing_ratio, DirectionalOutcome& out) {
  const std::size_t k = lattice_.num_decisions();
  const std::size_t omega = universe_.size();
  build_composition_table(senders.size());
  build_miss_pow(sharing_ratio);
  const bool use_table = receivers.size() >= kMissTableMinFleet;
  if (use_table) build_miss_table(sharing_ratio);

  double deliveries_acc = 0.0;
  for (std::size_t a = 0; a < receivers.size(); ++a) {
    if (receivers.revoked[a] != 0) continue;
    const std::span<const ItemId> collected = receivers.collected_of(a);
    const std::span<const ItemId> desired = receivers.desired_of(a);
    AVCP_EXPECT(is_sorted_unique(collected));
    AVCP_EXPECT(is_sorted_unique(desired));
    const core::DecisionId cls_r = receivers.claimed(a);
    AVCP_EXPECT(cls_r < k);

    // Senders are a foreign fleet: no self-exclusion applies.
    for (core::DecisionId l = 0; l < k; ++l) {
      if (readable_[cls_r * k + l] == 0) continue;
      const std::uint32_t n_l = ws_.class_senders[l];
      const std::size_t pool = ws_.class_items[l];
      if (n_l == 0 || pool == 0) continue;
      const std::uint64_t m = rng_.binomial(n_l, sharing_ratio);
      deliveries_acc += static_cast<double>(m) *
                        (static_cast<double>(pool) / static_cast<double>(n_l));
    }

    if (desired.empty()) continue;
    const std::uint32_t* counts = ws_.recv_count.data() + cls_r * omega;
    const double* miss_row =
        use_table ? ws_.miss_table.data() + cls_r * omega : nullptr;
    double num = 0.0;
    double den = 0.0;
    std::size_t pc = 0;
    for (const ItemId d : desired) {
      const double w = universe_.item(d).utility_weight;
      den += w;
      while (pc < collected.size() && collected[pc] < d) ++pc;
      if (pc < collected.size() && collected[pc] == d) {
        continue;  // marginal utility: already-held items excluded
      }
      const std::uint32_t c = counts[d];
      if (c == 0) continue;
      const double miss =
          miss_row ? miss_row[d] : item_miss_prob(sharing_ratio, c);
      if (rng_.bernoulli(1.0 - miss)) num += w;
    }
    AVCP_ENSURE(den > 0.0);
    out.marginal_utility[a] = num / den;
  }
  out.deliveries = static_cast<std::size_t>(std::llround(deliveries_acc));
}

}  // namespace avcp::perception
