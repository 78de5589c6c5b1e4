// Versioned, CRC-protected checkpoint files (crash-tolerance layer).
//
// A checkpoint is a snapshot of every stateful engine's save_state payload,
// framed so that torn writes, bit rot, and schema drift are *detected* and
// rejected with a typed error instead of silently resuming from garbage:
//
//   header:   magic "AVCPCKPT" | u32 schema version | u64 round |
//             u32 section count | u32 CRC-32C of the preceding bytes
//   section:  u32 id | u64 payload size | payload
//             | u32 CRC-32C(id | size | payload)
//
// Everything is little-endian (common/serial.h) regardless of host. Writes
// are atomic: the encoded image goes to `<path>.tmp` and is renamed over
// the destination only after a successful flush, so a crash mid-write can
// never destroy the previous generation — the worst case is a stray .tmp.
// write_torn() exists for the fault layer: it deliberately violates that
// protocol (a truncated image at the *final* path) so recovery's
// fall-back-to-previous-generation path can be exercised.
//
// Read-side failure model: every malformation — bad magic, unsupported
// schema version, truncated header or section, CRC mismatch, duplicate or
// missing section — throws CheckpointError, which derives SerialError, so
// one catch covers both framing and payload-decoding rejections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <system_error>
#include <vector>

#include "common/serial.h"

namespace avcp::checkpoint {

/// Bounded retry-with-backoff for the store's filesystem operations. A
/// snapshot is periodic, so transient conditions — an interrupted syscall,
/// a briefly full or busy volume — should cost a few milliseconds of
/// backoff, not the whole generation. Anything non-transient (permission,
/// missing parent, I/O error) still fails on the first attempt.
struct FsRetryPolicy {
  std::size_t attempts = 4;  // total tries, >= 1
  std::size_t backoff_initial_ms = 1;
  std::size_t backoff_factor = 4;  // exponential: 1, 4, 16 ms
};

/// The errno conditions worth retrying: EINTR, EAGAIN, ENOSPC, EBUSY.
bool is_transient_fs_error(const std::error_code& ec) noexcept;

/// Runs `op` until it returns success, a non-transient error, or the
/// attempt budget is spent; returns the last error_code ({} on success).
/// `sleep` (null = std::this_thread::sleep_for) receives each backoff in
/// milliseconds — injectable so tests don't wait out real backoffs.
std::error_code retry_transient_fs(
    const std::function<std::error_code()>& op,
    const FsRetryPolicy& policy = {},
    const std::function<void(std::size_t)>& sleep = nullptr);

/// Thrown on any malformed or incompatible checkpoint file. Derives
/// SerialError so callers can treat framing and payload corruption alike.
class CheckpointError : public SerialError {
 public:
  explicit CheckpointError(const std::string& message)
      : SerialError(message) {}
};

/// Bumped whenever the framing or any engine payload layout changes; a
/// file with a different version is rejected (no cross-version migration).
inline constexpr std::uint32_t kSchemaVersion = 3;

/// Well-known section ids. A file may carry any subset; readers ask for
/// the ones their wiring expects and reject on absence.
inline constexpr std::uint32_t kSectionSystem = 0x01;      // system plant
inline constexpr std::uint32_t kSectionAgentSim = 0x02;    // agent simulator
inline constexpr std::uint32_t kSectionTraceReplay = 0x03; // trace replay
inline constexpr std::uint32_t kSectionController = 0x04;  // cloud controller
inline constexpr std::uint32_t kSectionMeanField = 0x05;   // mean-field runner
inline constexpr std::uint32_t kSectionAux = 0x06;         // caller extras
inline constexpr std::uint32_t kSectionService = 0x07;     // service engine

/// Accumulates sections and produces the framed image.
class CheckpointWriter {
 public:
  /// `round` is the number of completed rounds the snapshot represents; it
  /// rides in the header so recovery can order generations without parsing
  /// payloads.
  explicit CheckpointWriter(std::uint64_t round) : round_(round) {}

  /// Opens a new section; returns the serializer to fill. Ids must be
  /// unique within a file.
  Serializer& section(std::uint32_t id);

  std::uint64_t round() const noexcept { return round_; }

  /// The complete framed image (header + sections, CRCs included).
  std::vector<std::byte> encode() const;

  /// Atomic write: encode to `<path>.tmp`, flush, rename over `path`.
  /// Throws CheckpointError on any I/O failure (the .tmp is removed).
  void write(const std::filesystem::path& path) const;

  /// Deliberately torn write for crash-injection tests: the first
  /// `keep_bytes` of the image, written *directly* to the final path with
  /// no rename protocol — exactly what a non-atomic writer dies leaving.
  void write_torn(const std::filesystem::path& path,
                  std::size_t keep_bytes) const;

 private:
  std::uint64_t round_;
  std::vector<std::pair<std::uint32_t, Serializer>> sections_;
};

/// Parses and validates a framed image; hands out per-section readers.
class CheckpointReader {
 public:
  /// Validates framing, version, and every CRC. Throws CheckpointError on
  /// any defect. The reader owns the bytes; section() spans into them.
  static CheckpointReader parse(std::vector<std::byte> bytes);

  /// Reads the whole file then parse()s it. Throws CheckpointError when
  /// the file cannot be opened or read.
  static CheckpointReader open(const std::filesystem::path& path);

  /// Completed rounds at snapshot time (from the header).
  std::uint64_t round() const noexcept { return round_; }

  bool has(std::uint32_t id) const noexcept;

  /// A deserializer over the section's payload. Throws CheckpointError
  /// when the section is absent.
  Deserializer section(std::uint32_t id) const;

 private:
  struct Section {
    std::uint32_t id;
    std::size_t offset;
    std::size_t size;
  };

  CheckpointReader() = default;

  std::vector<std::byte> bytes_;
  std::uint64_t round_ = 0;
  std::vector<Section> sections_;
};

}  // namespace avcp::checkpoint
