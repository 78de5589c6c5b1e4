// Deterministic fault injection for the closed V2X loop (robustness layer).
//
// The paper's framework (Fig. 1, S1-S5) assumes every round's decision
// reports, uploads, and distributions complete losslessly. Real deployments
// do not: V2X links drop frames, edge servers crash, and reports arrive
// stale at the cloud. FaultModel is the single source of truth for *what*
// fails *when*: per-round upload loss (a vehicle's decision-filtered upload
// never reaches its edge server), delivery loss (an accepted distribution
// is lost in flight to the receiver), report loss (a region's S1 decision
// report never reaches the cloud), and edge-server outages (a region skips
// its exchange round entirely, scheduled or random). Vehicles that hold
// their decision on purpose are the adversary layer's business
// (byzantine::Adversary, ServiceParams::attacker_fraction), not a fault.
//
// Every predicate is a *pure hash* of (seed, stream, indices) — no mutable
// RNG state — so a schedule is reproducible from a single seed regardless
// of query order or count, and two components (the plant's data plane and
// the cloud's DegradedController) can consult the same model independently
// without perturbing each other's streams.
#pragma once

#include <cstdint>
#include <vector>

#include "core/game.h"

namespace avcp {
class Serializer;
class Deserializer;
}  // namespace avcp

namespace avcp::faults {

/// A scheduled edge-server outage: `region` (or every region) is down for
/// rounds [first_round, first_round + duration).
struct OutageWindow {
  /// Sentinel: the outage hits every region.
  static constexpr core::RegionId kAllRegions = ~core::RegionId{0};

  core::RegionId region = kAllRegions;
  std::size_t first_round = 0;
  std::size_t duration = 0;

  bool covers(std::size_t round, core::RegionId r) const noexcept {
    return (region == kAllRegions || region == r) && round >= first_round &&
           round - first_round < duration;
  }
};

struct FaultParams {
  /// Probability a vehicle's upload is lost on the V2X uplink, per
  /// (round, exchange, vehicle). A lost upload never reaches the server:
  /// it shrinks the pool and costs the vehicle no privacy exposure.
  double upload_loss_rate = 0.0;
  /// Probability an accepted sender->receiver distribution is lost on the
  /// downlink. The uploader's privacy was already spent at the server;
  /// only the receiver's realized utility suffers.
  double delivery_loss_rate = 0.0;
  /// Probability a region's S1 decision report never reaches the cloud
  /// this round (independent of outages; a down region cannot report
  /// either).
  double report_loss_rate = 0.0;
  /// Probability a region's edge servers are down for a whole round
  /// (random outages, on top of any scheduled windows).
  double outage_rate = 0.0;
  /// Deterministic outage windows, e.g. "all edge servers down for rounds
  /// 30..39".
  std::vector<OutageWindow> outages;
  std::uint64_t seed = 0;

  /// True if any fault can ever fire. A model with any() == false is
  /// inert: the plant's zero-fault path is bit-identical to running with
  /// no model at all.
  bool any() const noexcept;

  /// Construction-time range checks (every rate in [0, 1], no overflowing
  /// outage window). FaultModel's constructor calls this; callers that
  /// build params long before the model exists (scenario catalog, CLI
  /// parsing) can call it directly to fail at definition time.
  void validate() const;
};

/// Loss counters accumulated by the degraded paths.
struct FaultCounters {
  std::size_t uploads_lost = 0;     // vehicle uploads dropped on the uplink
  std::size_t deliveries_lost = 0;  // items dropped on the downlink
  std::size_t reports_lost = 0;     // region-rounds with no usable report
  std::size_t region_outages = 0;   // region-rounds skipped entirely

  FaultCounters& operator+=(const FaultCounters& other) noexcept;

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;

  /// Checkpoint hooks (the counters accumulate across the whole run).
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);
};

class FaultModel {
 public:
  explicit FaultModel(FaultParams params);

  const FaultParams& params() const noexcept { return params_; }
  bool active() const noexcept { return active_; }

  /// Vehicle `vehicle`'s upload in exchange `exchange` of `round` in
  /// `region` is lost on the uplink.
  bool upload_lost(std::size_t round, core::RegionId region,
                   std::size_t exchange, std::size_t vehicle) const noexcept;

  /// The distribution from `sender` to `receiver` is lost on the downlink.
  bool delivery_lost(std::size_t round, core::RegionId region,
                     std::size_t exchange, std::size_t receiver,
                     std::size_t sender) const noexcept;

  /// The region's S1 decision report is lost en route to the cloud.
  bool report_lost(std::size_t round, core::RegionId region) const noexcept;

  /// The region's edge servers are down this round (scheduled window or
  /// random outage): no uploads, no distribution, no report.
  bool region_down(std::size_t round, core::RegionId region) const noexcept;

  /// A fresh report from `region` reaches the cloud this round.
  bool report_available(std::size_t round, core::RegionId region) const noexcept {
    return !region_down(round, region) && !report_lost(round, region);
  }

 private:
  double hash_uniform(std::uint64_t stream, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c, std::uint64_t d) const noexcept;

  FaultParams params_;
  bool active_;
};

}  // namespace avcp::faults
