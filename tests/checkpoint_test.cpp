// Checkpoint subsystem: serializer primitives, file-format framing and its
// rejection of every corruption class (truncation, bit flips, stale
// schema), the generation store, the snapshot policy, and the recovery
// supervisor's fall-back-a-generation behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/policy.h"
#include "checkpoint/recovery.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/stats.h"
#include "faults/crash_injector.h"

namespace avcp {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Serializer / Deserializer primitives
// ---------------------------------------------------------------------------

TEST(SerialTest, ScalarRoundTrip) {
  Serializer s;
  s.put_u8(0xAB);
  s.put_u32(0xDEADBEEFu);
  s.put_u64(0x0123456789ABCDEFull);
  s.put_f64(-0.0);
  s.put_f64(1.0 / 3.0);
  s.put_bool(true);
  s.put_string("checkpoint");

  Deserializer d(s.bytes());
  EXPECT_EQ(d.get_u8(), 0xAB);
  EXPECT_EQ(d.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.get_u64(), 0x0123456789ABCDEFull);
  const double neg_zero = d.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(d.get_f64(), 1.0 / 3.0);
  EXPECT_TRUE(d.get_bool());
  EXPECT_EQ(d.get_string(), "checkpoint");
  EXPECT_TRUE(d.exhausted());
}

TEST(SerialTest, LittleEndianLayout) {
  Serializer s;
  s.put_u32(0x01020304u);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(s.bytes()[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(s.bytes()[3]), 0x01);
}

TEST(SerialTest, UnderrunThrowsSerialError) {
  Serializer s;
  s.put_u32(7);
  Deserializer d(s.bytes());
  EXPECT_THROW(d.get_u64(), SerialError);
}

TEST(SerialTest, CorruptVectorLengthRejectedWithoutAllocation) {
  // A length prefix claiming more elements than the payload holds must be
  // rejected up front (never fed to reserve()).
  Serializer s;
  s.put_u64(std::uint64_t{1} << 60);
  Deserializer d(s.bytes());
  EXPECT_THROW(get_f64_vec(d), SerialError);
}

TEST(SerialTest, VectorHelpersRoundTrip) {
  Serializer s;
  put_f64_vec(s, std::vector<double>{1.5, -2.25, 0.0});
  put_size_vec(s, std::vector<std::size_t>{3, 0, 9});
  put_u8_vec(s, std::vector<std::uint8_t>{1, 0, 255});

  Deserializer d(s.bytes());
  EXPECT_EQ(get_f64_vec(d), (std::vector<double>{1.5, -2.25, 0.0}));
  EXPECT_EQ(get_size_vec(d), (std::vector<std::size_t>{3, 0, 9}));
  EXPECT_EQ(get_u8_vec(d), (std::vector<std::uint8_t>{1, 0, 255}));
  EXPECT_TRUE(d.exhausted());
}

TEST(SerialTest, Crc32cKnownAnswer) {
  // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
  const char digits[] = "123456789";
  const auto bytes =
      std::as_bytes(std::span<const char>(digits, sizeof(digits) - 1));
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
}

/// The bytewise CRC-32C: one lookup in the reflected 0x82F63B78 table per
/// byte. The reference the sliced crc32c must equal on every input.
std::uint32_t crc32c_bytewise(std::span<const std::byte> data,
                              std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<std::uint32_t>(b)) & 0xffu];
  }
  return ~crc;
}

TEST(SerialTest, Crc32cMatchesBytewiseReference) {
  // Every length 0-64 covers no block, one block and every tail; 4,095
  // bytes and 1 MB cover long runs. Each starts at every offset 0-7 of a
  // random buffer, and odd lengths chain from a non-zero seed too.
  Rng rng(3720);
  std::vector<std::byte> buffer((std::size_t{1} << 20) + 8);
  for (std::byte& b : buffer) b = static_cast<std::byte>(rng() & 0xffu);
  const std::span<const std::byte> all(buffer);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4095);
  lengths.push_back(std::size_t{1} << 20);
  for (const std::size_t n : lengths) {
    for (std::size_t start = 0; start < 8; ++start) {
      const auto data = all.subspan(start, n);
      const std::uint32_t seed = n % 2 == 0 ? 0u : 0x9E3779B9u;
      EXPECT_EQ(crc32c(data, seed), crc32c_bytewise(data, seed))
          << "length " << n << " at offset " << start;
    }
  }

  // Chaining: extending a CRC with `seed` equals one pass over a || b, at
  // every split of a 100-byte buffer.
  const auto hundred = all.first(100);
  const std::uint32_t whole = crc32c(hundred);
  EXPECT_EQ(whole, crc32c_bytewise(hundred));
  for (std::size_t split = 0; split <= hundred.size(); ++split) {
    EXPECT_EQ(crc32c(hundred.subspan(split), crc32c(hundred.first(split))),
              whole)
        << "split at " << split;
  }
}

/// Every proper prefix of `put`'s encoding, each in a buffer of its own
/// size (so a read past it is a heap overflow under ASan), must make `get`
/// throw SerialError; the whole encoding must decode to `want`.
template <class T, class Put, class Get>
void expect_every_prefix_rejected(const char* name, const std::vector<T>& want,
                                  Put put, Get get) {
  Serializer s;
  put(s, std::span<const T>(want));
  {
    Deserializer whole(s.bytes());
    EXPECT_TRUE(get(whole) == want) << name;
    EXPECT_TRUE(whole.exhausted()) << name;
  }
  for (std::size_t keep = 0; keep < s.size(); ++keep) {
    const std::vector<std::byte> prefix(
        s.bytes().begin(),
        s.bytes().begin() + static_cast<std::ptrdiff_t>(keep));
    Deserializer d(prefix);
    EXPECT_THROW(get(d), SerialError) << name << " kept " << keep;
  }
}

TEST(SerialTest, EveryVectorTruncationRejected) {
  expect_every_prefix_rejected<std::uint8_t>(
      "u8", {1, 0, 255, 7, 128}, put_u8_vec, get_u8_vec);
  expect_every_prefix_rejected<std::uint32_t>(
      "u32", {0xDEADBEEFu, 0, 1, 0x80000000u}, put_u32_vec, get_u32_vec);
  expect_every_prefix_rejected<std::uint64_t>(
      "u64", {0x0123456789ABCDEFull, 0, ~std::uint64_t{0}}, put_u64_vec,
      get_u64_vec);
  expect_every_prefix_rejected<double>(
      "f64", {1.5, -0.0, -2.25, 1.0 / 3.0}, put_f64_vec, get_f64_vec);
  expect_every_prefix_rejected<std::size_t>(
      "size", {3, 0, 9, std::size_t{1} << 40}, put_size_vec, get_size_vec);
}

TEST(StatsSerialTest, HistogramRoundTrip) {
  const std::vector<double> xs = {-1.0, 0.1, 0.5, 0.9, 2.0, 0.5};
  const Histogram h = histogram(xs, 0.0, 1.0, 4);
  ASSERT_EQ(h.underflow, 1u);
  ASSERT_EQ(h.overflow, 1u);

  Serializer s;
  h.save_state(s);
  Histogram restored;
  Deserializer d(s.bytes());
  restored.load_state(d);
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(restored.counts, h.counts);
  EXPECT_EQ(restored.underflow, h.underflow);
  EXPECT_EQ(restored.overflow, h.overflow);
}

// ---------------------------------------------------------------------------
// Checkpoint file format
// ---------------------------------------------------------------------------

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("avcp_ckpt_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A two-section checkpoint with recognizable payloads.
  checkpoint::CheckpointWriter make_writer(std::uint64_t round = 17) {
    checkpoint::CheckpointWriter writer(round);
    Serializer& a = writer.section(checkpoint::kSectionSystem);
    a.put_u64(round);
    put_f64_vec(a, std::vector<double>{0.25, 0.75});
    Serializer& b = writer.section(checkpoint::kSectionAux);
    b.put_string("aux");
    return writer;
  }

  fs::path dir_;
};

TEST_F(CheckpointFileTest, WriteReadRoundTrip) {
  const auto writer = make_writer();
  const fs::path path = dir_ / "ckpt.avcp";
  writer.write(path);

  const auto reader = checkpoint::CheckpointReader::open(path);
  EXPECT_EQ(reader.round(), 17u);
  EXPECT_TRUE(reader.has(checkpoint::kSectionSystem));
  EXPECT_TRUE(reader.has(checkpoint::kSectionAux));
  EXPECT_FALSE(reader.has(checkpoint::kSectionTraceReplay));

  Deserializer a = reader.section(checkpoint::kSectionSystem);
  EXPECT_EQ(a.get_u64(), 17u);
  EXPECT_EQ(get_f64_vec(a), (std::vector<double>{0.25, 0.75}));
  EXPECT_TRUE(a.exhausted());
  Deserializer b = reader.section(checkpoint::kSectionAux);
  EXPECT_EQ(b.get_string(), "aux");

  // No stray temp file after the atomic rename.
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST_F(CheckpointFileTest, MissingSectionThrows) {
  const auto reader = checkpoint::CheckpointReader::parse(make_writer().encode());
  EXPECT_THROW(reader.section(checkpoint::kSectionMeanField),
               checkpoint::CheckpointError);
}

TEST_F(CheckpointFileTest, EveryTruncationRejected) {
  const std::vector<std::byte> image = make_writer().encode();
  // Every proper prefix must be rejected — header truncation, section-table
  // truncation, and payload truncation alike.
  for (std::size_t keep : {0ul, 4ul, 12ul, 23ul, image.size() / 2,
                           image.size() - 1}) {
    std::vector<std::byte> torn(image.begin(),
                                image.begin() + static_cast<long>(keep));
    EXPECT_THROW(checkpoint::CheckpointReader::parse(std::move(torn)),
                 checkpoint::CheckpointError)
        << "prefix of " << keep << " bytes parsed";
  }
}

TEST_F(CheckpointFileTest, EveryFlippedByteRejected) {
  const std::vector<std::byte> image = make_writer().encode();
  // Flip one byte at a time across the whole image: each flip lands in the
  // magic, the version, the header CRC, a section header, a payload, or a
  // section CRC — all of which must fail validation. (Flipping a payload
  // byte breaks that section's CRC; flipping a CRC byte breaks the match.)
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::vector<std::byte> corrupt = image;
    corrupt[i] ^= std::byte{0x40};
    EXPECT_THROW(checkpoint::CheckpointReader::parse(std::move(corrupt)),
                 checkpoint::CheckpointError)
        << "flip at byte " << i << " parsed";
  }
}

TEST_F(CheckpointFileTest, StaleSchemaVersionRejected) {
  std::vector<std::byte> image = make_writer().encode();
  // The version is the u32 after the 8-byte magic; bump it and re-seal the
  // header CRC so *only* the version check can object.
  image[8] = static_cast<std::byte>(checkpoint::kSchemaVersion + 1);
  const std::uint32_t crc =
      crc32c(std::span<const std::byte>(image).first(24));
  for (int i = 0; i < 4; ++i) {
    image[24 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xffu);
  }
  try {
    checkpoint::CheckpointReader::parse(std::move(image));
    FAIL() << "stale schema version accepted";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("schema version"), std::string::npos);
  }
}

TEST_F(CheckpointFileTest, HugeSectionCountRejected) {
  // A header whose CRC is valid but whose section count (2^32 - 1) the file
  // cannot hold: rejected before anything is reserved for the sections.
  std::vector<std::byte> image = make_writer().encode();
  for (std::size_t i = 20; i < 24; ++i) image[i] = std::byte{0xff};
  Serializer crc;
  crc.put_u32(crc32c(std::span<const std::byte>(image).first(24)));
  std::copy(crc.bytes().begin(), crc.bytes().end(), image.begin() + 24);
  EXPECT_THROW(checkpoint::CheckpointReader::parse(image),
               checkpoint::CheckpointError);
}

TEST_F(CheckpointFileTest, OpeningADirectoryRejected) {
  EXPECT_THROW(checkpoint::CheckpointReader::open(dir_),
               checkpoint::CheckpointError);
}

TEST_F(CheckpointFileTest, TornWriteLeavesRejectableFile) {
  const auto writer = make_writer();
  const fs::path path = dir_ / "torn.avcp";
  writer.write_torn(path, writer.encode().size() / 2);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_THROW(checkpoint::CheckpointReader::open(path),
               checkpoint::CheckpointError);
}

TEST_F(CheckpointFileTest, CheckpointErrorIsSerialError) {
  // One catch handles both framing and payload rejections.
  EXPECT_THROW(checkpoint::CheckpointReader::parse({}), SerialError);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

TEST_F(CheckpointFileTest, StoreNamesParseAndOrder) {
  const checkpoint::CheckpointStore store(dir_ / "gens", 2);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(store.path_for(12)), 12u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(fs::path("other.txt")),
            std::nullopt);
  EXPECT_EQ(
      checkpoint::CheckpointStore::round_of(fs::path("ckpt-0000000x.avcp")),
      std::nullopt);

  for (const std::uint64_t round : {4u, 12u, 8u}) {
    checkpoint::CheckpointWriter writer(round);
    writer.section(checkpoint::kSectionAux).put_u64(round);
    writer.write(store.path_for(round));
  }
  // A stray non-generation file is ignored.
  std::ofstream(store.dir() / "notes.txt") << "ignore me";

  const auto generations = store.generations();
  ASSERT_EQ(generations.size(), 3u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(generations[0]), 12u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(generations[1]), 8u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(generations[2]), 4u);

  store.prune();
  const auto kept = store.generations();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(kept[0]), 12u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(kept[1]), 8u);
}

// ---------------------------------------------------------------------------
// CheckpointPolicy
// ---------------------------------------------------------------------------

TEST(CheckpointPolicyTest, PeriodicSchedule) {
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 5;
  EXPECT_FALSE(policy.should_checkpoint(0));
  EXPECT_FALSE(policy.should_checkpoint(4));
  EXPECT_TRUE(policy.should_checkpoint(5));
  EXPECT_FALSE(policy.should_checkpoint(6));
  EXPECT_TRUE(policy.should_checkpoint(10));
}

TEST(CheckpointPolicyTest, DisabledPolicyNeverFires) {
  const checkpoint::CheckpointPolicy policy;  // every_rounds=0, on_signal off
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_FALSE(policy.should_checkpoint(r));
  }
}

TEST(CheckpointPolicyTest, SignalRequestIsConsumedOnce) {
  checkpoint::CheckpointPolicy policy;
  policy.on_signal = true;
  (void)checkpoint::consume_checkpoint_request();  // drain any prior state
  EXPECT_FALSE(policy.should_checkpoint(3));

  checkpoint::install_checkpoint_signal_handler(SIGUSR1);
  std::raise(SIGUSR1);
  EXPECT_TRUE(checkpoint::checkpoint_requested());
  EXPECT_TRUE(policy.should_checkpoint(3));
  EXPECT_FALSE(policy.should_checkpoint(4));  // consumed
}

// ---------------------------------------------------------------------------
// run_with_recovery
// ---------------------------------------------------------------------------

/// A trivial engine: state is a running sum of round indices plus one.
struct CounterEngine {
  std::size_t rounds = 0;
  std::uint64_t sum = 0;

  void step(std::size_t round) {
    sum += round + 1;
    ++rounds;
  }
  void save(checkpoint::CheckpointWriter& writer) const {
    Serializer& s = writer.section(checkpoint::kSectionAux);
    s.put_u64(rounds);
    s.put_u64(sum);
  }
  void restore(const checkpoint::CheckpointReader& reader) {
    Deserializer d = reader.section(checkpoint::kSectionAux);
    rounds = static_cast<std::size_t>(d.get_u64());
    sum = d.get_u64();
  }
};

checkpoint::RecoveryHooks hooks_for(CounterEngine& engine) {
  checkpoint::RecoveryHooks hooks;
  hooks.reset = [&engine] { engine = CounterEngine{}; };
  hooks.restore = [&engine](const checkpoint::CheckpointReader& reader) {
    engine.restore(reader);
  };
  hooks.step = [&engine](std::size_t round) { engine.step(round); };
  hooks.save = [&engine](checkpoint::CheckpointWriter& writer) {
    engine.save(writer);
  };
  return hooks;
}

TEST_F(CheckpointFileTest, RecoveryColdStartAndPeriodicSnapshots) {
  const checkpoint::CheckpointStore store(dir_ / "rec", 2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 3;

  CounterEngine engine;
  const auto outcome =
      checkpoint::run_with_recovery(store, policy, 10, hooks_for(engine));
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(outcome.start_round, 0u);
  EXPECT_EQ(outcome.checkpoints_written, 3u);  // after rounds 3, 6, 9
  EXPECT_EQ(engine.rounds, 10u);
  EXPECT_EQ(engine.sum, 55u);
  // Retention: only the newest two generations survive pruning.
  const auto kept = store.generations();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(checkpoint::CheckpointStore::round_of(kept[0]), 9u);
}

TEST_F(CheckpointFileTest, RecoveryResumesFromNewestGeneration) {
  const checkpoint::CheckpointStore store(dir_ / "rec", 2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 3;

  CounterEngine first;
  checkpoint::run_with_recovery(store, policy, 7, hooks_for(first));

  // A "new process": fresh engine, same store. Must resume from round 6.
  CounterEngine second;
  const auto outcome =
      checkpoint::run_with_recovery(store, policy, 10, hooks_for(second));
  EXPECT_TRUE(outcome.resumed);
  EXPECT_EQ(outcome.start_round, 6u);
  EXPECT_EQ(second.rounds, 10u);

  CounterEngine straight;
  checkpoint::CheckpointStore other(dir_ / "straight", 2);
  checkpoint::run_with_recovery(other, policy, 10, hooks_for(straight));
  EXPECT_EQ(second.sum, straight.sum);
}

TEST_F(CheckpointFileTest, RecoveryFallsBackPastCorruptGeneration) {
  const checkpoint::CheckpointStore store(dir_ / "rec", 2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 3;

  CounterEngine first;
  checkpoint::run_with_recovery(store, policy, 7, hooks_for(first));
  // Tear the newest generation (round 6), as a crash mid-write would.
  const auto generations = store.generations();
  ASSERT_EQ(checkpoint::CheckpointStore::round_of(generations[0]), 6u);
  {
    checkpoint::CheckpointWriter writer(6);
    writer.section(checkpoint::kSectionAux).put_u64(0);
    writer.write_torn(generations[0], 10);
  }

  CounterEngine second;
  const auto outcome =
      checkpoint::run_with_recovery(store, policy, 10, hooks_for(second));
  EXPECT_TRUE(outcome.resumed);
  EXPECT_EQ(outcome.corrupt_skipped, 1u);
  EXPECT_EQ(outcome.start_round, 3u);  // fell back to the round-3 generation
  EXPECT_EQ(second.sum, 55u);          // still the exact straight-run result
}

TEST_F(CheckpointFileTest, RecoveryResetsWhenEveryGenerationIsDead) {
  const checkpoint::CheckpointStore store(dir_ / "rec", 3);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 2;

  CounterEngine first;
  checkpoint::run_with_recovery(store, policy, 5, hooks_for(first));
  for (const auto& path : store.generations()) {
    checkpoint::CheckpointWriter writer(0);
    writer.section(checkpoint::kSectionAux).put_u64(0);
    writer.write_torn(path, 6);
  }

  CounterEngine second;
  const auto outcome =
      checkpoint::run_with_recovery(store, policy, 5, hooks_for(second));
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(outcome.corrupt_skipped, 2u);
  EXPECT_EQ(second.sum, 15u);
}

TEST_F(CheckpointFileTest, RecoveryCanRefuseColdStartOverCorruptStore) {
  // Same dead store as above, but with fail_when_all_corrupt the silent
  // round-0 replay becomes a typed error instead.
  const checkpoint::CheckpointStore store(dir_ / "rec", 3);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 2;

  CounterEngine first;
  checkpoint::run_with_recovery(store, policy, 5, hooks_for(first));
  for (const auto& path : store.generations()) {
    checkpoint::CheckpointWriter writer(0);
    writer.section(checkpoint::kSectionAux).put_u64(0);
    writer.write_torn(path, 6);
  }

  CounterEngine second;
  checkpoint::RecoveryOptions options;
  options.fail_when_all_corrupt = true;
  EXPECT_THROW(
      checkpoint::run_with_recovery(store, policy, 5, hooks_for(second),
                                    options),
      checkpoint::AllGenerationsCorruptError);
  // An empty store is a legitimate cold start, never a corruption error.
  const checkpoint::CheckpointStore fresh(dir_ / "fresh", 3);
  CounterEngine third;
  EXPECT_NO_THROW(checkpoint::run_with_recovery(fresh, policy, 5,
                                                hooks_for(third), options));
  EXPECT_EQ(third.sum, 15u);
}

// ---------------------------------------------------------------------------
// run_supervised: the crash-loop guard
// ---------------------------------------------------------------------------

/// Supervisor options with an instant, recorded backoff.
checkpoint::SupervisorOptions recorded_supervisor(
    std::vector<std::chrono::milliseconds>& waits, std::size_t max_restarts) {
  checkpoint::SupervisorOptions options;
  options.max_restarts = max_restarts;
  options.backoff_base = std::chrono::milliseconds{100};
  options.backoff_cap = std::chrono::milliseconds{250};
  options.sleep = [&waits](std::chrono::milliseconds w) {
    waits.push_back(w);
  };
  return options;
}

TEST_F(CheckpointFileTest, SupervisorCompletesHealthyRunFirstAttempt) {
  const checkpoint::CheckpointStore store(dir_ / "sup", 2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 3;

  CounterEngine engine;
  std::vector<std::chrono::milliseconds> waits;
  const auto outcome = checkpoint::run_supervised(
      store, policy, 10, hooks_for(engine), recorded_supervisor(waits, 3));
  EXPECT_EQ(outcome.exit_code, checkpoint::kSupervisorOk);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.crashes, 0u);
  EXPECT_TRUE(waits.empty());
  EXPECT_TRUE(outcome.last_error.empty());
  EXPECT_EQ(outcome.recovery.completed_rounds, 10u);
  EXPECT_EQ(engine.sum, 55u);
}

TEST_F(CheckpointFileTest, SupervisorRetriesCrashesWithCappedBackoff) {
  // Two crashed attempts, then a clean one: the supervisor resumes from the
  // last good generation each time and reaches the exact straight-run state.
  const checkpoint::CheckpointStore store(dir_ / "sup", 2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 3;

  CounterEngine engine;
  std::size_t crashes_left = 2;
  checkpoint::RecoveryHooks hooks = hooks_for(engine);
  const auto plain_step = hooks.step;
  hooks.step = [&](std::size_t round) {
    if (round == 5 && crashes_left > 0) {
      --crashes_left;
      throw std::runtime_error("injected crash at round 5");
    }
    plain_step(round);
  };

  std::vector<std::chrono::milliseconds> waits;
  const auto outcome = checkpoint::run_supervised(
      store, policy, 10, hooks, recorded_supervisor(waits, 3));
  EXPECT_EQ(outcome.exit_code, checkpoint::kSupervisorOk);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.crashes, 2u);
  // Exponential, capped: 100ms, then min(200, 250)ms.
  EXPECT_EQ(waits, (std::vector<std::chrono::milliseconds>{
                       std::chrono::milliseconds{100},
                       std::chrono::milliseconds{200}}));
  EXPECT_EQ(outcome.backoff_total, std::chrono::milliseconds{300});
  EXPECT_TRUE(outcome.recovery.resumed);  // final attempt resumed, not reset
  EXPECT_EQ(engine.sum, 55u);             // bit-identical to a straight run
}

TEST_F(CheckpointFileTest, SupervisorStopsAfterRestartBudget) {
  // A deterministic crash survives every replay; the guard must give up
  // with the distinct crash-loop exit code instead of retrying forever.
  const checkpoint::CheckpointStore store(dir_ / "sup", 2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 3;

  CounterEngine engine;
  checkpoint::RecoveryHooks hooks = hooks_for(engine);
  hooks.step = [](std::size_t round) {
    if (round == 4) throw std::runtime_error("deterministic fault");
  };

  std::vector<std::chrono::milliseconds> waits;
  const auto outcome = checkpoint::run_supervised(
      store, policy, 10, hooks, recorded_supervisor(waits, 2));
  EXPECT_EQ(outcome.exit_code, checkpoint::kSupervisorCrashLoop);
  EXPECT_EQ(outcome.attempts, 3u);  // first try + max_restarts retries
  EXPECT_EQ(outcome.crashes, 3u);
  // Backoff after crashes 1 and 2 only; the final crash exits instead.
  EXPECT_EQ(waits, (std::vector<std::chrono::milliseconds>{
                       std::chrono::milliseconds{100},
                       std::chrono::milliseconds{200}}));
  EXPECT_EQ(outcome.last_error, "deterministic fault");
}

TEST_F(CheckpointFileTest, SupervisorFlagsFullyCorruptStoreImmediately) {
  // All generations dead is operator territory: distinct exit code, no
  // restart burn (replaying from round 0 would hide the corruption).
  const checkpoint::CheckpointStore store(dir_ / "sup", 3);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = 2;

  CounterEngine first;
  checkpoint::run_with_recovery(store, policy, 5, hooks_for(first));
  for (const auto& path : store.generations()) {
    checkpoint::CheckpointWriter writer(0);
    writer.section(checkpoint::kSectionAux).put_u64(0);
    writer.write_torn(path, 6);
  }

  CounterEngine second;
  std::vector<std::chrono::milliseconds> waits;
  const auto outcome = checkpoint::run_supervised(
      store, policy, 5, hooks_for(second), recorded_supervisor(waits, 5));
  EXPECT_EQ(outcome.exit_code, checkpoint::kSupervisorAllCorrupt);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.crashes, 0u);
  EXPECT_TRUE(waits.empty());
  EXPECT_FALSE(outcome.last_error.empty());
}

// ---------------------------------------------------------------------------
// CrashInjector plans
// ---------------------------------------------------------------------------

TEST(CrashInjectorTest, ParsePlans) {
  using faults::CrashStage;
  EXPECT_EQ(faults::CrashInjector::parse_plan("before:5").stage,
            CrashStage::kBeforeRound);
  EXPECT_EQ(faults::CrashInjector::parse_plan("before:5").round, 5u);
  EXPECT_EQ(faults::CrashInjector::parse_plan("after:12").stage,
            CrashStage::kAfterRound);
  EXPECT_EQ(faults::CrashInjector::parse_plan("midwrite:0").stage,
            CrashStage::kMidCheckpointWrite);
  // Malformed specs disarm rather than crash at round 0.
  for (const char* bad : {"", "before", "before:", "before:x", "late:3"}) {
    EXPECT_EQ(faults::CrashInjector::parse_plan(bad).stage, CrashStage::kNone)
        << bad;
  }
}

TEST(CrashInjectorTest, DisarmedInjectorNeverFires) {
  const faults::CrashInjector injector;
  EXPECT_FALSE(injector.armed());
  injector.before_round(0);  // must not exit
  injector.after_round(0);
  EXPECT_FALSE(injector.tears_checkpoint(0));
}

TEST(CrashInjectorTest, TearPredicateMatchesPlannedRound) {
  const faults::CrashInjector injector(
      faults::CrashInjector::parse_plan("midwrite:8"));
  EXPECT_TRUE(injector.armed());
  EXPECT_TRUE(injector.tears_checkpoint(8));
  EXPECT_FALSE(injector.tears_checkpoint(7));
  injector.before_round(8);  // wrong stage: must not exit
  injector.after_round(8);
}

// ---------------------------------------------------------------------------
// Transient-filesystem-error retry (bounded, with backoff)
// ---------------------------------------------------------------------------

TEST(FsRetryTest, ClassifiesTransientErrors) {
  using checkpoint::is_transient_fs_error;
  EXPECT_TRUE(is_transient_fs_error(
      std::make_error_code(std::errc::interrupted)));
  EXPECT_TRUE(is_transient_fs_error(
      std::make_error_code(std::errc::no_space_on_device)));
  EXPECT_TRUE(is_transient_fs_error(
      std::make_error_code(std::errc::resource_unavailable_try_again)));
  EXPECT_FALSE(is_transient_fs_error(
      std::make_error_code(std::errc::no_such_file_or_directory)));
  EXPECT_FALSE(is_transient_fs_error(
      std::make_error_code(std::errc::permission_denied)));
  EXPECT_FALSE(is_transient_fs_error(std::error_code{}));  // success
}

TEST(FsRetryTest, TransientFailureRetriesWithExponentialBackoff) {
  std::size_t calls = 0;
  std::vector<std::size_t> sleeps;
  const std::error_code ec = checkpoint::retry_transient_fs(
      [&] {
        ++calls;
        if (calls < 3) {
          return std::make_error_code(std::errc::interrupted);
        }
        return std::error_code{};
      },
      checkpoint::FsRetryPolicy{},
      [&](std::size_t ms) { sleeps.push_back(ms); });
  EXPECT_FALSE(ec);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(sleeps, (std::vector<std::size_t>{1, 4}));
}

TEST(FsRetryTest, NonTransientFailureReturnsImmediately) {
  std::size_t calls = 0;
  std::size_t slept = 0;
  const std::error_code ec = checkpoint::retry_transient_fs(
      [&] {
        ++calls;
        return std::make_error_code(std::errc::no_such_file_or_directory);
      },
      checkpoint::FsRetryPolicy{}, [&](std::size_t) { ++slept; });
  EXPECT_EQ(ec, std::make_error_code(std::errc::no_such_file_or_directory));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(slept, 0u);
}

TEST(FsRetryTest, PersistentTransientFailureExhaustsAttempts) {
  std::size_t calls = 0;
  std::vector<std::size_t> sleeps;
  checkpoint::FsRetryPolicy policy;  // attempts=4, 1ms x4 backoff
  const std::error_code ec = checkpoint::retry_transient_fs(
      [&] {
        ++calls;
        return std::make_error_code(std::errc::no_space_on_device);
      },
      policy, [&](std::size_t ms) { sleeps.push_back(ms); });
  EXPECT_EQ(ec, std::make_error_code(std::errc::no_space_on_device));
  EXPECT_EQ(calls, policy.attempts);
  // No sleep after the final attempt.
  EXPECT_EQ(sleeps, (std::vector<std::size_t>{1, 4, 16}));
}

TEST_F(CheckpointFileTest, WriteToMissingDirectoryFailsWithoutTmpResidue) {
  const fs::path missing = dir_ / "absent" / "ckpt-00000001.avcp";
  // ENOENT is not transient: the failure must surface on the first attempt
  // as a typed CheckpointError, with no .tmp left behind.
  EXPECT_THROW(make_writer().write(missing), checkpoint::CheckpointError);
  EXPECT_FALSE(fs::exists(missing));
  fs::path tmp = missing;
  tmp += ".tmp";
  EXPECT_FALSE(fs::exists(tmp));
}

}  // namespace
}  // namespace avcp
