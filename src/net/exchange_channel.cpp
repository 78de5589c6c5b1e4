#include "net/exchange_channel.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp::net {

ExchangeChannel::ExchangeChannel(const LinkModel& model,
                                 std::uint32_t num_nodes)
    : model_(model), num_nodes_(num_nodes) {
  AVCP_EXPECT(num_nodes >= 1);
  canonical_.resize(num_nodes);
  order_.resize(num_nodes);
}

std::uint32_t ExchangeChannel::add_link(std::uint32_t src,
                                        std::uint32_t dst) {
  AVCP_EXPECT(src < num_nodes_ && dst < num_nodes_);
  const auto id = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{src, dst, kNothing});
  canonical_[dst].push_back(id);
  delivered_.push_back(0);
  return id;
}

void ExchangeChannel::publish(std::uint32_t link, std::size_t round) {
  AVCP_EXPECT(link < links_.size());
  AVCP_EXPECT(resolved_round_ == kNothing || round > resolved_round_);
  pending_.push_back(link);
}

void ExchangeChannel::resolve_round(std::size_t round) {
  AVCP_EXPECT(resolved_round_ == kNothing || round > resolved_round_);
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    order_[n].assign(canonical_[n].begin(), canonical_[n].end());
  }
  std::fill(delivered_.begin(), delivered_.end(), std::uint8_t{0});

  // Swap the queue out so attempt_send can append next-round events while
  // this round's entries are walked. Fresh publishes are fated first, then
  // due in-flight entries in insertion order — a fixed serial order, so
  // delivery can never depend on lane count.
  carry_.swap(inflight_);
  inflight_.clear();
  for (const std::uint32_t link : pending_) {
    attempt_send(round, link, round, 0);
  }
  pending_.clear();
  for (const InFlight& e : carry_) {
    if (e.due != round) {
      inflight_.push_back(e);
    } else if (e.kind == 0) {
      arrive(e.link, e.payload, e.reorder != 0);
    } else {
      attempt_send(round, e.link, e.payload, e.attempt);
    }
  }
  carry_.clear();
  resolved_round_ = round;
}

void ExchangeChannel::attempt_send(std::size_t round, std::uint32_t link,
                                   std::uint64_t payload,
                                   std::uint32_t attempt) {
  ++counters_.sent;
  if (attempt > 0) ++counters_.retries;
  const Link& l = links_[link];
  const bool cut = model_.severed(round, l.src, l.dst);
  MessageFate fate;
  if (cut) {
    fate.kind = MessageFate::Kind::kDrop;
    ++counters_.severed;
  } else {
    fate = model_.fate(round, l.src, l.dst, payload, attempt);
  }
  if (fate.kind == MessageFate::Kind::kDrop) {
    ++counters_.dropped;
    if (attempt < model_.params().max_retries) {
      // Exponential backoff in rounds: retry a+1 goes out base * 2^a
      // rounds after attempt a failed.
      const std::uint64_t wait = model_.params().backoff_base
                                 << attempt;
      inflight_.push_back(
          InFlight{round + wait, payload, link, attempt + 1, 1, 0});
    } else {
      ++counters_.expired;
    }
    return;  // a dropped message neither duplicates nor reorders
  }
  if (fate.kind == MessageFate::Kind::kDelay) {
    ++counters_.delayed;
    inflight_.push_back(InFlight{round + fate.delay_rounds, payload, link,
                                 attempt, 0,
                                 static_cast<std::uint8_t>(fate.reorder)});
  } else {
    arrive(link, payload, fate.reorder);
  }
  if (fate.duplicate) {
    ++counters_.duplicates;
    inflight_.push_back(
        InFlight{round + fate.duplicate_delay, payload, link, attempt, 0, 0});
  }
}

void ExchangeChannel::arrive(std::uint32_t link, std::uint64_t payload,
                             bool reorder) {
  Link& l = links_[link];
  // Newest-wins dedup: message id is (link, payload round), so a duplicate
  // or a late copy superseded by fresher data applies exactly zero times.
  if (l.applied == kNothing || payload > l.applied) {
    l.applied = payload;
    delivered_[link] = 1;
    ++counters_.delivered;
  } else {
    ++counters_.deduped;
  }
  if (reorder) {
    std::vector<std::uint32_t>& ord = order_[l.dst];
    for (std::size_t i = 1; i < ord.size(); ++i) {
      if (ord[i] == link) {
        std::swap(ord[i], ord[i - 1]);
        break;
      }
    }
  }
}

std::uint64_t ExchangeChannel::consumable(std::uint32_t link,
                                          std::size_t round) const {
  AVCP_EXPECT(link < links_.size());
  const std::uint64_t p = links_[link].applied;
  if (p == kNothing) return kNothing;
  if (round - p > model_.params().max_staleness) return kNothing;
  return p;
}

void ExchangeChannel::reset() {
  for (Link& l : links_) l.applied = kNothing;
  std::fill(delivered_.begin(), delivered_.end(), std::uint8_t{0});
  for (std::uint32_t n = 0; n < num_nodes_; ++n) order_[n].clear();
  pending_.clear();
  inflight_.clear();
  counters_ = Counters{};
  resolved_round_ = kNothing;
}

void ExchangeChannel::Counters::save_state(Serializer& s) const {
  s.put_u64(sent);
  s.put_u64(delivered);
  s.put_u64(deduped);
  s.put_u64(dropped);
  s.put_u64(severed);
  s.put_u64(delayed);
  s.put_u64(duplicates);
  s.put_u64(retries);
  s.put_u64(expired);
}

void ExchangeChannel::Counters::load_state(Deserializer& d) {
  sent = d.get_u64();
  delivered = d.get_u64();
  deduped = d.get_u64();
  dropped = d.get_u64();
  severed = d.get_u64();
  delayed = d.get_u64();
  duplicates = d.get_u64();
  retries = d.get_u64();
  expired = d.get_u64();
}

void ExchangeChannel::save_state(Serializer& s) const {
  // Configuration fingerprint: network schedule + topology. A snapshot
  // taken under one degradation schedule must not restore into another.
  put_net_params(s, model_.params());
  s.put_u32(num_nodes_);
  s.put_u64(links_.size());
  for (const Link& l : links_) {
    s.put_u32(l.src);
    s.put_u32(l.dst);
  }

  s.put_u64(resolved_round_);
  for (const Link& l : links_) s.put_u64(l.applied);
  s.put_u64(inflight_.size());
  for (const InFlight& e : inflight_) {
    s.put_u64(e.due);
    s.put_u64(e.payload);
    s.put_u32(e.link);
    s.put_u32(e.attempt);
    s.put_u8(e.kind);
    s.put_u8(e.reorder);
  }
  counters_.save_state(s);
}

void ExchangeChannel::load_state(Deserializer& d) {
  check_net_params(d, model_.params());
  Deserializer::check(d.get_u32() == num_nodes_,
                      "net snapshot: node count mismatch");
  Deserializer::check(d.get_u64() == links_.size(),
                      "net snapshot: link count mismatch");
  for (const Link& l : links_) {
    Deserializer::check(d.get_u32() == l.src,
                        "net snapshot: link topology mismatch");
    Deserializer::check(d.get_u32() == l.dst,
                        "net snapshot: link topology mismatch");
  }

  // Parse into locals and commit only once every read has succeeded, so a
  // rejected snapshot leaves the channel as it was.
  const std::uint64_t resolved_round = d.get_u64();
  std::vector<std::uint64_t> applied(links_.size());
  for (std::uint64_t& a : applied) a = d.get_u64();
  // due, payload, link, attempt, kind, reorder: 26 bytes a message.
  const std::size_t pending = d.checked_count(
      d.get_u64(), 26, "net snapshot: in-flight count exceeds payload");
  std::vector<InFlight> inflight;
  inflight.reserve(pending);
  for (std::size_t i = 0; i < pending; ++i) {
    InFlight e;
    e.due = d.get_u64();
    e.payload = d.get_u64();
    e.link = d.get_u32();
    Deserializer::check(e.link < links_.size(),
                        "net snapshot: in-flight link out of range");
    e.attempt = d.get_u32();
    Deserializer::check(e.attempt <= model_.params().max_retries,
                        "net snapshot: in-flight attempt out of range");
    e.kind = d.get_u8();
    Deserializer::check(e.kind <= 1, "net snapshot: bad in-flight kind");
    e.reorder = d.get_u8();
    Deserializer::check(
        resolved_round == kNothing || e.due > resolved_round,
        "net snapshot: in-flight message due in the past");
    inflight.push_back(e);
  }
  Counters counters;
  counters.load_state(d);
  resolved_round_ = resolved_round;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].applied = applied[i];
  }
  inflight_ = std::move(inflight);
  counters_ = counters;
  pending_.clear();
  std::fill(delivered_.begin(), delivered_.end(), std::uint8_t{0});
}

}  // namespace avcp::net
