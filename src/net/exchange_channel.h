// Reliable-enough delivery over a LinkModel: retries, backoff, dedup, and
// bounded-staleness consumption for the inter-region exchange.
//
// The channel carries transport *metadata only*. Payloads live in the
// engine's net::PayloadRing (payload_ring.h; one ring of per-sender
// snapshots, NetParams::ring_slots() deep): a message is the pair (link,
// payload_round), and a delivery tells the receiver which payload round to
// consume. This keeps the channel engine-agnostic — System ships fleet
// scenes, ServiceEngine ships report rows, ShardedFleetEngine ships sender
// samples — and keeps the checkpoint section tiny.
//
// Protocol per round (all on the control thread, between the parallel
// stages, so delivery order can never depend on lane count):
//   1. publish(link, round) for every link whose sender has a fresh
//      payload this round;
//   2. resolve_round(round): each new publish and each due in-flight entry
//      gets its LinkModel fate. Deliveries land as newest-wins updates of
//      the link's applied payload (duplicates and late stale copies dedup
//      away); drops schedule a bounded retransmission with exponential
//      backoff (backoff_base * 2^attempt rounds); partitions sever the
//      link for the round, costing the message an attempt.
//   3. consumable(link, round): the payload round the receiver should
//      consume — the newest applied payload while its age is within
//      max_staleness, else kNothing (the link is blind and the receiver
//      falls back to local-only revision, the DegradedController pattern
//      at the transport layer).
//   4. consume_order(dst): the receiver's links in canonical (add_link)
//      order, except that reorder-fated arrivals swap with their
//      predecessor — receivers that fold arrivals in consume order see
//      reordering as a real, deterministic effect.
//
// With an inert LinkModel (params().any() == false) every publish delivers
// in its own round, consumable() == round on every published link, and
// consume_order is canonical: the transport path is bit-identical to the
// synchronous exchange it replaced (locked in tests/partition_test.cpp).
//
// save_state/load_state capture the in-flight queue, per-link freshness,
// and counters behind a NetParams + topology fingerprint, so a checkpoint
// taken mid-partition (retransmissions pending, delayed copies in flight)
// resumes byte-equal and rejects a differently-configured network.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/link_model.h"

namespace avcp::net {

class ExchangeChannel {
 public:
  /// No payload applied / no payload consumable sentinel.
  static constexpr std::uint64_t kNothing = ~std::uint64_t{0};

  /// `model` must outlive the channel. `num_nodes` bounds link endpoints.
  ExchangeChannel(const LinkModel& model, std::uint32_t num_nodes);

  /// Registers the directed link src -> dst; returns its id. Links must be
  /// added before the first publish; per-destination canonical consume
  /// order is add order.
  std::uint32_t add_link(std::uint32_t src, std::uint32_t dst);

  std::size_t num_links() const noexcept { return links_.size(); }
  std::uint32_t link_src(std::uint32_t link) const {
    return links_[link].src;
  }
  std::uint32_t link_dst(std::uint32_t link) const {
    return links_[link].dst;
  }

  /// The sender of `link` offers its round-`round` payload. Call once per
  /// link per round (skip links whose sender produced nothing), then
  /// resolve_round(round) exactly once.
  void publish(std::uint32_t link, std::size_t round);

  /// Resolves every new publish and every due in-flight message for
  /// `round`. Rounds must be resolved in increasing order.
  void resolve_round(std::size_t round);

  /// Payload round the receiver should consume on `link` at `round`, or
  /// kNothing when the link is blind (nothing ever applied, or the newest
  /// applied payload is older than max_staleness).
  std::uint64_t consumable(std::uint32_t link, std::size_t round) const;

  /// A delivery applied on `link` in the last resolved round.
  bool delivered_this_round(std::uint32_t link) const {
    return delivered_[link] != 0;
  }
  /// Newest payload round ever applied on `link` (kNothing before any).
  std::uint64_t applied_round(std::uint32_t link) const {
    return links_[link].applied;
  }

  /// The receiver's links in this round's consume order (canonical add
  /// order with reorder swaps applied by the last resolve_round).
  std::span<const std::uint32_t> consume_order(std::uint32_t dst) const {
    return order_[dst];
  }

  /// Cumulative transport telemetry.
  struct Counters {
    std::uint64_t sent = 0;        // transmission attempts (retries included)
    std::uint64_t delivered = 0;   // arrivals that applied (newest-wins)
    std::uint64_t deduped = 0;     // arrivals superseded by a newer payload
    std::uint64_t dropped = 0;     // attempts lost (severed included)
    std::uint64_t severed = 0;     // attempts lost to a partition
    std::uint64_t delayed = 0;     // attempts fated to arrive late
    std::uint64_t duplicates = 0;  // extra copies spawned
    std::uint64_t retries = 0;     // retransmission attempts
    std::uint64_t expired = 0;     // messages abandoned after max_retries

    friend bool operator==(const Counters&, const Counters&) = default;
    void save_state(Serializer& s) const;
    void load_state(Deserializer& d);
  };
  const Counters& counters() const noexcept { return counters_; }

  /// Pending messages (scheduled deliveries + scheduled retransmissions).
  std::size_t in_flight() const noexcept { return inflight_.size(); }

  /// Drops all in-flight state and freshness; topology is kept.
  void reset();

  /// Checkpoint hooks: NetParams + topology fingerprint, then per-link
  /// freshness, the in-flight queue, and the counters.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  struct Link {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t applied = kNothing;  // newest applied payload round
  };
  /// One scheduled event: either a fate-resolved delivery due at `due`, or
  /// a retransmission to be (re-)fated when its backoff expires.
  struct InFlight {
    std::uint64_t due = 0;
    std::uint64_t payload = 0;
    std::uint32_t link = 0;
    std::uint32_t attempt = 0;
    std::uint8_t kind = 0;  // 0 = delivery, 1 = retransmission
    std::uint8_t reorder = 0;
  };

  void attempt_send(std::size_t round, std::uint32_t link,
                    std::uint64_t payload, std::uint32_t attempt);
  void arrive(std::uint32_t link, std::uint64_t payload, bool reorder);

  const LinkModel& model_;
  std::uint32_t num_nodes_;
  std::vector<Link> links_;
  /// order_[dst]: dst's links in the current consume order (reset to
  /// canonical_[dst] at each resolve).
  std::vector<std::vector<std::uint32_t>> canonical_;
  std::vector<std::vector<std::uint32_t>> order_;
  std::vector<std::uint32_t> pending_;       // this round's publishes
  std::vector<InFlight> inflight_;           // insertion-ordered
  std::vector<std::uint8_t> delivered_;      // per-link, last resolve
  std::vector<InFlight> carry_;              // resolve scratch
  Counters counters_;
  std::uint64_t resolved_round_ = kNothing;  // last resolved round
};

}  // namespace avcp::net
