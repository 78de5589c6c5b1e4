#include "perception/fleet_soa.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp::perception {

namespace {

/// An ItemSpan on the wire: offset, then length, each a little-endian u32.
constexpr std::size_t kSpanBytes = 8;

}  // namespace

void FleetSoA::clear() noexcept {
  decision_.clear();
  claim_.clear();
  revoked_.clear();
  collected_.clear();
  desired_.clear();
  arena_.clear();
  fitness_.clear();
  reputation_.clear();
  open_ = OpenSet::kNone;
}

void FleetSoA::reset_items() noexcept {
  AVCP_EXPECT(open_ == OpenSet::kNone);
  arena_.clear();
  for (ItemSpan& s : collected_) s = ItemSpan{};
  for (ItemSpan& s : desired_) s = ItemSpan{};
}

void FleetSoA::reserve(std::size_t vehicles, std::size_t arena_items) {
  decision_.reserve(vehicles);
  claim_.reserve(vehicles);
  revoked_.reserve(vehicles);
  collected_.reserve(vehicles);
  desired_.reserve(vehicles);
  fitness_.reserve(vehicles);
  reputation_.reserve(vehicles);
  arena_.reserve(arena_items);
}

std::size_t FleetSoA::add(core::DecisionId decision, core::DecisionId claim,
                          bool revoked) {
  const std::size_t v = decision_.size();
  decision_.push_back(decision);
  claim_.push_back(claim);
  revoked_.push_back(revoked ? 1 : 0);
  collected_.push_back(ItemSpan{});
  desired_.push_back(ItemSpan{});
  fitness_.push_back(0.0);
  reputation_.push_back(0.0);
  return v;
}

std::size_t FleetSoA::add(core::DecisionId decision, core::DecisionId claim,
                          bool revoked, std::span<const ItemId> collected_items,
                          std::span<const ItemId> desired_items) {
  const std::size_t v = add(decision, claim, revoked);
  std::span<ItemId> c =
      alloc_collected(v, static_cast<std::uint32_t>(collected_items.size()));
  std::copy(collected_items.begin(), collected_items.end(), c.begin());
  std::span<ItemId> d =
      alloc_desired(v, static_cast<std::uint32_t>(desired_items.size()));
  std::copy(desired_items.begin(), desired_items.end(), d.begin());
  return v;
}

std::size_t FleetSoA::add(const FleetView& src, std::size_t v) {
  AVCP_EXPECT(v < src.size());
  return add(src.decision[v], src.claim[v], src.revoked[v] != 0,
             src.collected_of(v), src.desired_of(v));
}

std::span<ItemId> FleetSoA::alloc_collected(std::size_t v, std::uint32_t n) {
  AVCP_EXPECT(open_ == OpenSet::kNone && v < decision_.size());
  const std::size_t offset = arena_.size();
  arena_.resize(offset + n);
  collected_[v] = ItemSpan{static_cast<std::uint32_t>(offset), n};
  return {arena_.data() + offset, n};
}

std::span<ItemId> FleetSoA::alloc_desired(std::size_t v, std::uint32_t n) {
  AVCP_EXPECT(open_ == OpenSet::kNone && v < decision_.size());
  const std::size_t offset = arena_.size();
  arena_.resize(offset + n);
  desired_[v] = ItemSpan{static_cast<std::uint32_t>(offset), n};
  return {arena_.data() + offset, n};
}

void FleetSoA::begin_collected(std::size_t v) {
  AVCP_EXPECT(open_ == OpenSet::kNone && v < decision_.size());
  open_ = OpenSet::kCollected;
  open_vehicle_ = v;
  open_offset_ = arena_.size();
}

void FleetSoA::begin_desired(std::size_t v) {
  AVCP_EXPECT(open_ == OpenSet::kNone && v < decision_.size());
  open_ = OpenSet::kDesired;
  open_vehicle_ = v;
  open_offset_ = arena_.size();
}

void FleetSoA::end_set() {
  AVCP_EXPECT(open_ != OpenSet::kNone);
  const ItemSpan span{static_cast<std::uint32_t>(open_offset_),
                      static_cast<std::uint32_t>(arena_.size() - open_offset_)};
  if (open_ == OpenSet::kCollected) {
    collected_[open_vehicle_] = span;
  } else {
    desired_[open_vehicle_] = span;
  }
  open_ = OpenSet::kNone;
}

FleetView FleetSoA::view() const noexcept {
  return FleetView{decision_, claim_, revoked_, collected_, desired_, arena_};
}

void FleetSoA::count_classes(std::size_t k,
                             std::vector<std::uint32_t>& counts) const {
  counts.assign(k, 0);
  for (std::size_t v = 0; v < decision_.size(); ++v) {
    const core::DecisionId c =
        claim_[v] == kClaimFollowsDecision ? decision_[v] : claim_[v];
    AVCP_EXPECT(c < k);
    ++counts[c];
  }
}

void FleetSoA::save_state(Serializer& s) const {
  AVCP_EXPECT(open_ == OpenSet::kNone);
  put_u32_vec(s, decision_);
  put_u32_vec(s, claim_);
  put_u8_vec(s, revoked_);
  // Span tables: a u64 count, then each span's offset and length as u32s.
  auto save_spans = [&](const std::vector<ItemSpan>& spans) {
    s.put_u64(spans.size());
    std::byte* out = s.append_raw(spans.size() * kSpanBytes).data();
    for (const ItemSpan& span : spans) {
      store_le(out, span.offset);
      store_le(out + 4, span.length);
      out += kSpanBytes;
    }
  };
  save_spans(collected_);
  save_spans(desired_);
  put_u32_vec(s, arena_);
  put_f64_vec(s, fitness_);
  put_f64_vec(s, reputation_);
}

void FleetSoA::load_state(Deserializer& d) {
  decision_ = get_u32_vec(d);
  claim_ = get_u32_vec(d);
  revoked_ = get_u8_vec(d);
  const std::size_t n = decision_.size();
  Deserializer::check(claim_.size() == n && revoked_.size() == n,
                      "FleetSoA snapshot: roster arrays disagree");
  auto load_spans = [&](std::vector<ItemSpan>& spans) {
    Deserializer::check(d.get_u64() == n,
                        "FleetSoA snapshot: span count mismatch");
    const std::byte* in = d.get_raw(n * kSpanBytes).data();
    spans.resize(n);
    for (ItemSpan& span : spans) {
      span.offset = load_le<std::uint32_t>(in);
      span.length = load_le<std::uint32_t>(in + 4);
      in += kSpanBytes;
    }
  };
  load_spans(collected_);
  load_spans(desired_);
  arena_ = get_u32_vec(d);
  for (const ItemSpan& span : collected_) {
    Deserializer::check(
        static_cast<std::size_t>(span.offset) + span.length <= arena_.size(),
        "FleetSoA snapshot: collected span out of arena");
  }
  for (const ItemSpan& span : desired_) {
    Deserializer::check(
        static_cast<std::size_t>(span.offset) + span.length <= arena_.size(),
        "FleetSoA snapshot: desired span out of arena");
  }
  fitness_ = get_f64_vec(d);
  reputation_ = get_f64_vec(d);
  Deserializer::check(fitness_.size() == n && reputation_.size() == n,
                      "FleetSoA snapshot: hot arrays disagree");
  open_ = OpenSet::kNone;
}

}  // namespace avcp::perception
