// Unit contracts of the degraded-network transport primitives: LinkModel's
// pure-hash fate assignment and partition schedule, NetParams validation,
// ExchangeChannel's retry/backoff/dedup/staleness protocol with its
// checkpoint round-trip, and PayloadRing's residency and slot checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/serial.h"
#include "net/exchange_channel.h"
#include "net/link_model.h"
#include "net/payload_ring.h"

namespace avcp::net {
namespace {

NetParams lossy_params() {
  NetParams p;
  p.drop_rate = 0.3;
  p.delay_rate = 0.25;
  p.max_delay_rounds = 3;
  p.duplicate_rate = 0.2;
  p.reorder_rate = 0.2;
  p.seed = 41;
  return p;
}

// ---------------------------------------------------------------------------
// LinkModel
// ---------------------------------------------------------------------------

TEST(LinkModel, FateIsPureAndSeedKeyed) {
  const LinkModel a(lossy_params());
  const LinkModel b(lossy_params());
  auto other = lossy_params();
  other.seed = 42;
  const LinkModel c(other);

  std::size_t differs = 0;
  for (std::size_t round = 0; round < 50; ++round) {
    for (std::uint32_t src = 0; src < 3; ++src) {
      const MessageFate fa = a.fate(round, src, (src + 1) % 3, round, 0);
      const MessageFate fb = b.fate(round, src, (src + 1) % 3, round, 0);
      // Pure hash: two models with identical params agree exactly.
      EXPECT_EQ(fa.kind, fb.kind);
      EXPECT_EQ(fa.delay_rounds, fb.delay_rounds);
      EXPECT_EQ(fa.duplicate, fb.duplicate);
      EXPECT_EQ(fa.duplicate_delay, fb.duplicate_delay);
      EXPECT_EQ(fa.reorder, fb.reorder);
      const MessageFate fc = c.fate(round, src, (src + 1) % 3, round, 0);
      differs += (fc.kind != fa.kind || fc.reorder != fa.reorder) ? 1 : 0;
    }
  }
  // A different seed is a different schedule.
  EXPECT_GT(differs, 0u);
}

TEST(LinkModel, FateExtremesAndDelayBounds) {
  NetParams always_drop;
  always_drop.drop_rate = 1.0;
  const LinkModel dropper(always_drop);
  NetParams always_delay;
  always_delay.delay_rate = 1.0;
  always_delay.max_delay_rounds = 4;
  const LinkModel delayer(always_delay);
  const LinkModel inert{NetParams{}};

  for (std::size_t round = 0; round < 40; ++round) {
    const MessageFate fd = dropper.fate(round, 0, 1, round, 0);
    EXPECT_EQ(fd.kind, MessageFate::Kind::kDrop);
    // A dropped message neither duplicates nor reorders.
    EXPECT_FALSE(fd.duplicate);
    EXPECT_FALSE(fd.reorder);

    const MessageFate fl = delayer.fate(round, 0, 1, round, 0);
    EXPECT_EQ(fl.kind, MessageFate::Kind::kDelay);
    EXPECT_GE(fl.delay_rounds, 1u);
    EXPECT_LE(fl.delay_rounds, 4u);

    const MessageFate fi = inert.fate(round, 0, 1, round, 0);
    EXPECT_EQ(fi.kind, MessageFate::Kind::kDeliver);
    EXPECT_FALSE(fi.duplicate);
    EXPECT_FALSE(fi.reorder);
  }
  EXPECT_FALSE(inert.degrading());
  EXPECT_TRUE(dropper.degrading());
}

TEST(LinkModel, PartitionWindowsSeverAndHeal) {
  NetParams p;
  PartitionWindow w;
  w.first_round = 10;
  w.duration = 5;
  w.component = {0, 0, 1, 1};
  p.partitions.push_back(w);
  const LinkModel model(p);

  EXPECT_TRUE(model.degrading());  // partitions alone make the net degrading
  for (std::size_t round = 0; round < 25; ++round) {
    const bool inside = round >= 10 && round < 15;
    EXPECT_EQ(model.severed(round, 0, 2), inside) << "round " << round;
    EXPECT_EQ(model.severed(round, 1, 3), inside) << "round " << round;
    // Same component: never severed.
    EXPECT_FALSE(model.severed(round, 0, 1)) << "round " << round;
    EXPECT_FALSE(model.severed(round, 2, 3)) << "round " << round;
  }
}

TEST(LinkModel, HashedPartitionIsDeterministicAndSaltKeyed) {
  PartitionWindow w;
  w.first_round = 0;
  w.duration = 1;
  w.num_components = 2;
  w.salt = 7;
  PartitionWindow other = w;
  other.salt = 8;

  bool salt_matters = false;
  for (std::uint32_t n = 0; n < 64; ++n) {
    EXPECT_EQ(w.component_of(n), w.component_of(n));
    EXPECT_LT(w.component_of(n), 2u);
    salt_matters = salt_matters || w.component_of(n) != other.component_of(n);
  }
  EXPECT_TRUE(salt_matters);
}

TEST(NetParams, AnyActiveAndRingSlots) {
  NetParams p;
  EXPECT_FALSE(p.any());
  EXPECT_FALSE(p.active());
  p.model_transport = true;
  EXPECT_FALSE(p.any());
  EXPECT_TRUE(p.active());
  p.drop_rate = 0.1;
  EXPECT_TRUE(p.any());
  p.max_staleness = 5;
  EXPECT_EQ(p.ring_slots(), 6u);
}

TEST(NetParams, ValidateRejectsOutOfRangeKnobs) {
  const auto expect_bad = [](auto&& tweak) {
    NetParams p;
    tweak(p);
    EXPECT_THROW(p.validate(), ContractViolation);
  };
  expect_bad([](NetParams& p) { p.drop_rate = 1.5; });
  expect_bad([](NetParams& p) { p.drop_rate = -0.1; });
  expect_bad([](NetParams& p) { p.delay_rate = 2.0; });
  expect_bad([](NetParams& p) { p.duplicate_rate = -1.0; });
  expect_bad([](NetParams& p) { p.reorder_rate = 1.01; });
  expect_bad([](NetParams& p) { p.max_delay_rounds = 0; });
  expect_bad([](NetParams& p) { p.max_delay_rounds = 17; });
  expect_bad([](NetParams& p) { p.max_retries = 9; });
  expect_bad([](NetParams& p) { p.backoff_base = 0; });
  expect_bad([](NetParams& p) { p.backoff_base = 9; });
  expect_bad([](NetParams& p) { p.max_staleness = 33; });
  expect_bad([](NetParams& p) {
    PartitionWindow w;
    w.first_round = ~std::size_t{0};
    w.duration = 2;  // window end overflows
    p.partitions.push_back(w);
  });
  expect_bad([](NetParams& p) {
    PartitionWindow w;
    w.num_components = 0;
    p.partitions.push_back(w);
  });
  NetParams fine = lossy_params();
  EXPECT_NO_THROW(fine.validate());
}

// ---------------------------------------------------------------------------
// ExchangeChannel
// ---------------------------------------------------------------------------

/// 3-node ring with a channel on top: link i delivers into node i from its
/// predecessor.
struct Ring {
  explicit Ring(const NetParams& params)
      : model(params), channel(model, 3) {
    for (std::uint32_t n = 0; n < 3; ++n) {
      EXPECT_EQ(channel.add_link((n + 2) % 3, n), n);
    }
  }
  LinkModel model;
  ExchangeChannel channel;
};

TEST(ExchangeChannel, InertModelDeliversEverythingOwnRound) {
  NetParams p;
  p.model_transport = true;
  Ring ring(p);
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::uint32_t link = 0; link < 3; ++link) {
      ring.channel.publish(link, round);
    }
    ring.channel.resolve_round(round);
    for (std::uint32_t link = 0; link < 3; ++link) {
      EXPECT_TRUE(ring.channel.delivered_this_round(link));
      EXPECT_EQ(ring.channel.consumable(link, round), round);
    }
    for (std::uint32_t dst = 0; dst < 3; ++dst) {
      // Canonical consume order: exactly the links into dst, in add order.
      const auto order = ring.channel.consume_order(dst);
      ASSERT_EQ(order.size(), 1u);
      EXPECT_EQ(order[0], dst);
    }
  }
  const auto& c = ring.channel.counters();
  EXPECT_EQ(c.sent, 18u);
  EXPECT_EQ(c.delivered, 18u);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.deduped, 0u);
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.expired, 0u);
  EXPECT_EQ(ring.channel.in_flight(), 0u);
}

TEST(ExchangeChannel, RetryBackoffScheduleAndExpiry) {
  NetParams p;
  p.drop_rate = 1.0;  // every attempt is lost
  p.max_retries = 2;
  p.backoff_base = 1;
  Ring ring(p);

  ring.channel.publish(0, 0);
  ring.channel.resolve_round(0);  // attempt 0 drops; retry due round 1
  EXPECT_EQ(ring.channel.in_flight(), 1u);
  EXPECT_EQ(ring.channel.counters().sent, 1u);
  EXPECT_EQ(ring.channel.counters().dropped, 1u);

  ring.channel.resolve_round(1);  // attempt 1 drops; retry due round 3
  EXPECT_EQ(ring.channel.in_flight(), 1u);
  EXPECT_EQ(ring.channel.counters().retries, 1u);

  ring.channel.resolve_round(2);  // backoff: nothing due
  EXPECT_EQ(ring.channel.counters().sent, 2u);

  ring.channel.resolve_round(3);  // attempt 2 drops; budget exhausted
  EXPECT_EQ(ring.channel.in_flight(), 0u);
  const auto& c = ring.channel.counters();
  EXPECT_EQ(c.sent, 3u);
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.dropped, 3u);
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(ring.channel.applied_round(0), ExchangeChannel::kNothing);
  EXPECT_EQ(ring.channel.consumable(0, 3), ExchangeChannel::kNothing);
}

TEST(ExchangeChannel, BoundedStalenessWindow) {
  NetParams p;
  p.model_transport = true;
  p.max_staleness = 2;
  Ring ring(p);

  ring.channel.publish(0, 0);
  ring.channel.resolve_round(0);
  EXPECT_EQ(ring.channel.consumable(0, 0), 0u);
  for (std::size_t round = 1; round <= 4; ++round) {
    ring.channel.resolve_round(round);  // sender silent from round 1 on
    if (round <= p.max_staleness) {
      EXPECT_EQ(ring.channel.consumable(0, round), 0u) << "round " << round;
    } else {
      EXPECT_EQ(ring.channel.consumable(0, round), ExchangeChannel::kNothing)
          << "round " << round;
    }
  }
}

TEST(ExchangeChannel, DuplicatesDedupNewestWins) {
  NetParams p;
  p.duplicate_rate = 1.0;  // every delivery spawns an extra copy
  p.seed = 3;
  Ring ring(p);

  for (std::size_t round = 0; round < 8; ++round) {
    for (std::uint32_t link = 0; link < 3; ++link) {
      ring.channel.publish(link, round);
    }
    ring.channel.resolve_round(round);
    for (std::uint32_t link = 0; link < 3; ++link) {
      // Newest-wins: whatever the duplicates did, the consumable payload is
      // this round's.
      EXPECT_EQ(ring.channel.consumable(link, round), round);
    }
  }
  const auto& c = ring.channel.counters();
  EXPECT_EQ(c.duplicates, 24u);  // one per publish
  EXPECT_GT(c.deduped, 0u);      // late copies superseded, not re-applied
  EXPECT_EQ(c.dropped, 0u);
}

TEST(ExchangeChannel, PartitionSeversThenHeals) {
  NetParams p;
  PartitionWindow w;
  w.first_round = 2;
  w.duration = 3;
  w.component = {0, 1, 1};  // node 0 cut off from nodes 1 and 2
  p.partitions.push_back(w);
  p.max_retries = 0;  // keep the schedule easy to count
  p.max_staleness = 1;
  Ring ring(p);

  for (std::size_t round = 0; round < 8; ++round) {
    for (std::uint32_t link = 0; link < 3; ++link) {
      ring.channel.publish(link, round);
    }
    ring.channel.resolve_round(round);
    const bool inside = round >= 2 && round < 5;
    // Link 1 (0 -> 1) and link 0 (2 -> 0) cross the cut; link 2 (1 -> 2)
    // stays inside component 1.
    EXPECT_EQ(ring.channel.consumable(2, round), round);
    if (inside) {
      EXPECT_FALSE(ring.channel.delivered_this_round(0));
      EXPECT_FALSE(ring.channel.delivered_this_round(1));
    } else {
      EXPECT_EQ(ring.channel.consumable(0, round), round) << round;
      EXPECT_EQ(ring.channel.consumable(1, round), round) << round;
    }
  }
  // 3 partition rounds x 2 crossing links.
  EXPECT_EQ(ring.channel.counters().severed, 6u);
  // After max_staleness rounds inside the window the crossing links were
  // blind; the heal at round 5 restored them (checked above).
  EXPECT_EQ(ring.channel.consumable(0, 4), ExchangeChannel::kNothing);
}

TEST(ExchangeChannel, CheckpointRoundTripMidFlight) {
  const NetParams p = [] {
    NetParams q = lossy_params();
    PartitionWindow w;
    w.first_round = 3;
    w.duration = 4;
    w.component = {0, 1, 1};
    q.partitions.push_back(w);
    return q;
  }();

  Ring straight(p);
  const auto drive = [](Ring& ring, std::size_t from, std::size_t to) {
    for (std::size_t round = from; round < to; ++round) {
      for (std::uint32_t link = 0; link < 3; ++link) {
        ring.channel.publish(link, round);
      }
      ring.channel.resolve_round(round);
    }
  };
  drive(straight, 0, 5);  // inside the partition, retries pending
  Serializer snapshot;
  straight.channel.save_state(snapshot);

  Ring resumed(p);
  Deserializer d(snapshot.bytes());
  resumed.channel.load_state(d);
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(resumed.channel.in_flight(), straight.channel.in_flight());

  drive(straight, 5, 12);
  drive(resumed, 5, 12);
  EXPECT_TRUE(straight.channel.counters() == resumed.channel.counters());
  for (std::uint32_t link = 0; link < 3; ++link) {
    EXPECT_EQ(straight.channel.applied_round(link),
              resumed.channel.applied_round(link));
    EXPECT_EQ(straight.channel.consumable(link, 11),
              resumed.channel.consumable(link, 11));
  }
  // Byte-equality of a second snapshot: the channels are the same object.
  Serializer sa;
  straight.channel.save_state(sa);
  Serializer sb;
  resumed.channel.save_state(sb);
  ASSERT_EQ(sa.bytes().size(), sb.bytes().size());
  EXPECT_TRUE(std::equal(sa.bytes().begin(), sa.bytes().end(),
                         sb.bytes().begin()));
}

TEST(ExchangeChannel, CheckpointRejectsMismatchedNetwork) {
  Ring source(lossy_params());
  source.channel.publish(0, 0);
  source.channel.resolve_round(0);
  Serializer snapshot;
  source.channel.save_state(snapshot);

  {
    // Different fate schedule.
    auto other = lossy_params();
    other.drop_rate = 0.5;
    Ring target(other);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(target.channel.load_state(d), SerialError);
  }
  {
    // Different transport policy.
    auto other = lossy_params();
    other.max_staleness = 7;
    Ring target(other);
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(target.channel.load_state(d), SerialError);
  }
  {
    // Different topology.
    LinkModel model(lossy_params());
    ExchangeChannel target(model, 3);
    target.add_link(0, 1);  // one link instead of the ring
    Deserializer d(snapshot.bytes());
    EXPECT_THROW(target.load_state(d), SerialError);
  }
}

TEST(ExchangeChannel, ResetDropsFlightStateKeepsTopology) {
  Ring ring(lossy_params());
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::uint32_t link = 0; link < 3; ++link) {
      ring.channel.publish(link, round);
    }
    ring.channel.resolve_round(round);
  }
  ring.channel.reset();
  EXPECT_EQ(ring.channel.in_flight(), 0u);
  EXPECT_EQ(ring.channel.num_links(), 3u);
  EXPECT_TRUE(ring.channel.counters() == ExchangeChannel::Counters{});
  EXPECT_EQ(ring.channel.applied_round(0), ExchangeChannel::kNothing);
  // The channel restarts cleanly from round 0.
  ring.channel.publish(0, 0);
  ring.channel.resolve_round(0);
  EXPECT_EQ(ring.channel.counters().sent, 1u);
}

// ---------------------------------------------------------------------------
// PayloadRing
// ---------------------------------------------------------------------------

TEST(PayloadRing, CheckpointRoundTripAndResidency) {
  const auto save = [](Serializer& s, double v) { s.put_f64(v); };
  const auto load = [](Deserializer& d, double& v) { v = d.get_f64(); };
  PayloadRing<double> ring(2, 3);
  ring.publish(0, 4) = 1.5;   // slot 1
  ring.publish(1, 6) = -2.0;  // slot 0
  Serializer snapshot;
  ring.save_state(snapshot, save);

  PayloadRing<double> restored(2, 3);
  Deserializer d(snapshot.bytes());
  restored.load_state(d, load);
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(restored.consume(0, 4), 1.5);
  EXPECT_EQ(restored.consume(1, 6), -2.0);
  // Round 1 maps to the slot round 4 overwrote: no longer resident.
  EXPECT_THROW((void)restored.consume(0, 1), ContractViolation);

  restored.reset();
  EXPECT_THROW((void)restored.consume(0, 4), ContractViolation);
}

TEST(PayloadRing, LoadRejectsMisplacedSlot) {
  // Well-formed bytes, but sender 0's slot 0 claims round 4, which belongs
  // in slot 4 % 3 == 1. Restoring it would only fail mid-round, when a
  // receiver consumes round 4 from slot 1; load_state rejects it up front
  // so checkpoint recovery can treat the snapshot as corrupt.
  Serializer snapshot;
  snapshot.put_u64(4);
  snapshot.put_f64(1.5);
  for (int k = 1; k < 6; ++k) snapshot.put_u64(ExchangeChannel::kNothing);
  PayloadRing<double> ring(2, 3);
  Deserializer d(snapshot.bytes());
  EXPECT_THROW(ring.load_state(d, [](Deserializer& in, double& v) {
                 v = in.get_f64();
               }),
               SerialError);
}

}  // namespace
}  // namespace avcp::net
