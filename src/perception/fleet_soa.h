// Structure-of-arrays fleet storage for the million-vehicle engine.
//
// The AoS `perception::Vehicle` carries two heap-allocated ItemSets per
// vehicle — at 1M vehicles that is 2M separately-allocated vectors whose
// contents the data-plane kernels chase through pointer-dense memory.
// FleetSoA stores the same logical fleet as parallel arrays (decision,
// claim, revoked, fitness, reputation) with every vehicle's collected and
// desired item ids packed into ONE flat arena, indexed by (offset, length)
// spans. The layout is a pure representation change: the data-plane kernels
// are templated over a fleet accessor, so an AoS span and a FleetView run
// literally the same code and produce byte-identical RoundOutcomes for
// identical logical content (regression-locked in tests/fleet_soa_test.cpp).
//
// ## Ownership and sharding rules (DESIGN.md §16)
//
// One FleetSoA is owned by exactly one shard (one engine region / one
// worker-lane task at a time). All growth is grow-only: clear() and
// reset_items() drop logical size but never release capacity, so a shard
// that has reached its high-water mark performs zero heap allocations in
// steady state. Cross-shard reads of a *quiescent* fleet (a barrier-
// separated earlier stage's output) are fine; concurrent mutation is not —
// the arena is not synchronised, by design (no cross-shard allocation, no
// false sharing on hot arrays).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/lattice.h"
#include "perception/measure.h"

namespace avcp {
class Serializer;
class Deserializer;
}  // namespace avcp

namespace avcp::perception {

/// Sentinel claim value: the vehicle claims its true decision (the same
/// convention as Vehicle::kClaimFollowsDecision).
inline constexpr core::DecisionId kClaimFollowsDecision =
    ~core::DecisionId{0};

/// A (offset, length) window into a fleet's flat item arena.
struct ItemSpan {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// Non-owning, read-only view of a FleetSoA (or any compatible storage):
/// what the data-plane kernels consume. Cheap to copy; valid only while the
/// underlying fleet is unmodified.
struct FleetView {
  std::span<const core::DecisionId> decision;
  std::span<const core::DecisionId> claim;
  std::span<const std::uint8_t> revoked;
  std::span<const ItemSpan> collected;
  std::span<const ItemSpan> desired;
  std::span<const ItemId> arena;

  std::size_t size() const noexcept { return decision.size(); }

  std::span<const ItemId> items(ItemSpan s) const noexcept {
    return arena.subspan(s.offset, s.length);
  }
  std::span<const ItemId> collected_of(std::size_t v) const noexcept {
    return items(collected[v]);
  }
  std::span<const ItemId> desired_of(std::size_t v) const noexcept {
    return items(desired[v]);
  }
  core::DecisionId claimed(std::size_t v) const noexcept {
    return claim[v] == kClaimFollowsDecision ? decision[v] : claim[v];
  }
};

/// Grow-only SoA fleet. Item sets are appended into the arena either whole
/// (`add` with spans), as fixed-size windows (`alloc_collected` /
/// `alloc_desired`), or streamed one id at a time through the open-set
/// builder (`begin_* / push_item / end_set`) for samplers that do not know
/// the set size up front. Per-vehicle item ids must be appended in strictly
/// ascending order (the sorted-unique contract of ItemSet).
class FleetSoA {
 public:
  /// Drops every vehicle and item; capacity is retained.
  void clear() noexcept;

  /// Keeps the fleet roster (decision/claim/revoked/fitness/reputation)
  /// but drops all collected/desired items — the per-round refill path.
  void reset_items() noexcept;

  void reserve(std::size_t vehicles, std::size_t arena_items);

  std::size_t size() const noexcept { return decision_.size(); }
  std::size_t arena_size() const noexcept { return arena_.size(); }

  /// Appends a vehicle with empty item sets; returns its index.
  std::size_t add(core::DecisionId decision,
                  core::DecisionId claim = kClaimFollowsDecision,
                  bool revoked = false);

  /// Appends a vehicle and copies its item sets into the arena.
  std::size_t add(core::DecisionId decision, core::DecisionId claim,
                  bool revoked, std::span<const ItemId> collected_items,
                  std::span<const ItemId> desired_items);

  /// Appends a copy of vehicle `v` of `src` (spans re-packed locally).
  std::size_t add(const FleetView& src, std::size_t v);

  /// Allocates a contiguous `n`-item window for vehicle v's collected
  /// (resp. desired) set and returns it for the caller to fill (ascending).
  /// The vehicle's previous span, if any, is abandoned in place.
  std::span<ItemId> alloc_collected(std::size_t v, std::uint32_t n);
  std::span<ItemId> alloc_desired(std::size_t v, std::uint32_t n);

  /// Open-set builder for streaming samplers: at most one set may be open
  /// at a time; push_item appends to it; end_set records the span.
  void begin_collected(std::size_t v);
  void begin_desired(std::size_t v);
  void push_item(ItemId id) { arena_.push_back(id); }
  void end_set();

  // Mutable hot arrays (index-owned writes under the sharding rules).
  std::span<core::DecisionId> decisions() noexcept { return decision_; }
  std::span<double> fitness() noexcept { return fitness_; }
  std::span<double> reputation() noexcept { return reputation_; }

  core::DecisionId decision(std::size_t v) const noexcept {
    return decision_[v];
  }
  std::span<const double> fitness() const noexcept { return fitness_; }
  std::span<const double> reputation() const noexcept { return reputation_; }
  std::span<const ItemId> collected_of(std::size_t v) const noexcept {
    return {arena_.data() + collected_[v].offset, collected_[v].length};
  }
  std::span<const ItemId> desired_of(std::size_t v) const noexcept {
    return {arena_.data() + desired_[v].offset, desired_[v].length};
  }

  FleetView view() const noexcept;

  /// Histogram of claimed classes into `counts` (assigned to size k).
  void count_classes(std::size_t k, std::vector<std::uint32_t>& counts) const;

  /// Checkpoint hooks: the full logical fleet (roster, item spans, arena,
  /// fitness, reputation). A restored fleet's view() is byte-equal to the
  /// saved one — what the net payload rings need to resume mid-partition.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  enum class OpenSet : std::uint8_t { kNone, kCollected, kDesired };

  std::vector<core::DecisionId> decision_;
  std::vector<core::DecisionId> claim_;
  std::vector<std::uint8_t> revoked_;
  std::vector<ItemSpan> collected_;
  std::vector<ItemSpan> desired_;
  std::vector<ItemId> arena_;
  std::vector<double> fitness_;
  std::vector<double> reputation_;
  OpenSet open_ = OpenSet::kNone;
  std::size_t open_vehicle_ = 0;
  std::size_t open_offset_ = 0;
};

}  // namespace avcp::perception
