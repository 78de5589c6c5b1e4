// Payload storage beside an ExchangeChannel (DESIGN.md §17).
//
// The channel carries (link, payload round) metadata only; the payloads
// themselves live here, one ring of NetParams::ring_slots() slots per
// sender. A sender's round-r payload goes into slot r % slots, so every
// payload round ExchangeChannel::consumable can still return (at most
// max_staleness rounds old) is resident, and anything older has been
// overwritten.
// Engines write their own senders' slots in the publish step and read any
// sender's slot after the channel resolves the round; a sender never
// writes another sender's ring, so a ring is safe to fill from the lanes
// of a parallel stage.
//
// save_state/load_state write, sender-major, each slot's payload round
// (ExchangeChannel::kNothing when empty) followed — for a resident slot
// only — by the engine's own payload bytes. load_state rejects a resident
// slot whose round does not belong at its index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/serial.h"
#include "net/exchange_channel.h"

namespace avcp::net {

template <class T>
class PayloadRing {
 public:
  PayloadRing() = default;
  /// `senders` rings of `slots` (NetParams::ring_slots()) slots each.
  PayloadRing(std::size_t senders, std::size_t slots)
      : slots_(slots), ring_(senders * slots) {
    AVCP_EXPECT(slots >= 1);
  }

  /// The slot that carries `sender`'s round-`round` payload, marked
  /// resident; the caller overwrites the payload in full.
  T& publish(std::size_t sender, std::uint64_t round) {
    Slot& slot = ring_[index(sender, round)];
    slot.round = round;
    return slot.payload;
  }

  /// `sender`'s round-`round` payload, which must still be resident (any
  /// round ExchangeChannel::consumable returns is).
  const T& consume(std::size_t sender, std::uint64_t round) const {
    const Slot& slot = ring_[index(sender, round)];
    AVCP_ENSURE(slot.round == round);
    return slot.payload;
  }

  /// Marks every slot empty.
  void reset() {
    for (Slot& slot : ring_) slot.round = ExchangeChannel::kNothing;
  }

  /// `save(s, payload)` writes one resident payload.
  template <class Save>
  void save_state(Serializer& s, Save&& save) const {
    for (const Slot& slot : ring_) {
      s.put_u64(slot.round);
      if (slot.round != ExchangeChannel::kNothing) save(s, slot.payload);
    }
  }

  /// `load(d, payload)` reads one resident payload (and rejects one whose
  /// shape disagrees with the live engine).
  template <class Load>
  void load_state(Deserializer& d, Load&& load) {
    for (std::size_t k = 0; k < ring_.size(); ++k) {
      Slot& slot = ring_[k];
      slot.round = d.get_u64();
      if (slot.round == ExchangeChannel::kNothing) continue;
      Deserializer::check(slot.round % slots_ == k % slots_,
                          "net snapshot: payload in the wrong ring slot");
      load(d, slot.payload);
    }
  }

 private:
  struct Slot {
    std::uint64_t round = ExchangeChannel::kNothing;
    T payload{};
  };

  std::size_t index(std::size_t sender, std::uint64_t round) const {
    AVCP_EXPECT(sender * slots_ < ring_.size());
    return sender * slots_ + static_cast<std::size_t>(round % slots_);
  }

  std::size_t slots_ = 1;
  std::vector<Slot> ring_;  // sender-major
};

}  // namespace avcp::net
