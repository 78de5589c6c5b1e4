// Streaming fleet ingestion (DESIGN.md §16).
//
// Million-vehicle fleets must never be materialised as one flat roster
// before sharding: a FleetSource is pulled in shard-sized batches and each
// seed is routed to its shard on arrival, so peak ingestion memory is
// O(batch) above the final sharded state. The contract is deliberately
// minimal — a seed is (stable id, initial decision) — and deterministic
// sources must derive any per-vehicle randomness from the id alone (a pure
// hash stream), so the resulting fleet is independent of batch size and of
// how many pulls the consumer makes. The one consumer is the sharded fleet
// engine (ShardedFleetEngine::ingest, system/fleet_engine.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.h"
#include "core/lattice.h"

namespace avcp::core {

/// One vehicle entering the fleet: a stable identity and its initial
/// decision. Everything else (region/shard, attacker role, item sets) is
/// derived downstream from the id.
struct VehicleSeed {
  std::uint64_t id = 0;
  DecisionId decision = 0;
};

/// Pull-based source of vehicle seeds. Implementations may generate
/// synthetically, replay a trace, or proxy a live join stream; they must
/// not require the consumer to hold more than one batch at a time.
class FleetSource {
 public:
  virtual ~FleetSource() = default;

  /// Fills out[0..r) and returns r. r < out.size() signals exhaustion;
  /// after that every call returns 0.
  virtual std::size_t next_batch(std::span<VehicleSeed> out) = 0;
};

/// Synthetic source of `count` vehicles with ids [0, count) whose initial
/// decisions are drawn uniformly from [0, num_decisions) via a per-id
/// hash-derived stream — the fleet is a pure function of (count,
/// num_decisions, seed), independent of batch size.
class SyntheticFleetSource final : public FleetSource {
 public:
  SyntheticFleetSource(std::size_t count, std::size_t num_decisions,
                       std::uint64_t seed) noexcept
      : count_(count), num_decisions_(num_decisions), seed_(seed) {}

  std::size_t next_batch(std::span<VehicleSeed> out) override {
    std::size_t r = 0;
    while (r < out.size() && next_ < count_) {
      const std::uint64_t id = next_++;
      Rng rng(derive_seed(seed_, {0xF1, id}));
      out[r++] = VehicleSeed{
          id, static_cast<DecisionId>(rng.uniform_int(
                  0, static_cast<std::int64_t>(num_decisions_) - 1))};
    }
    return r;
  }

 private:
  std::size_t count_;
  std::size_t num_decisions_;
  std::uint64_t seed_;
  std::size_t next_ = 0;
};

}  // namespace avcp::core
