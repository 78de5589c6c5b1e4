// Binary serialization primitives for the checkpoint subsystem.
//
// Serializer appends scalars to a byte buffer in little-endian order
// regardless of host endianness; Deserializer reads them back with bounds
// checks. Every stateful engine exposes save_state(Serializer&) /
// load_state(Deserializer&) built on these, and checkpoint/checkpoint.h
// frames the resulting payloads into a versioned, CRC-protected file.
//
// Failure model: Deserializer never reads past its span — a truncated or
// garbled payload throws SerialError (a typed, catchable error) instead of
// returning garbage, and every element count passes checked_count() before
// anything is sized for it, so a corrupt count never reaches the allocator
// as bad_alloc. load_state implementations use check() for semantic
// validation (dimension mismatches against the live configuration), so a
// checkpoint from a differently-configured run is rejected, not applied.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace avcp {

/// Thrown when decoding fails: truncated payload, bad tag, or a semantic
/// mismatch against the live configuration. checkpoint::CheckpointError
/// derives from it, so `catch (const SerialError&)` covers every way a
/// checkpoint can be rejected.
class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& message)
      : std::runtime_error(message) {}
};

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
/// hardware-accelerated storage stacks standardise on. `seed` chains
/// incremental computations: pass a previous result to extend it.
/// Slicing-by-8: eight table lookups fold each 8-byte block, and the tail
/// takes the bytewise step; the value is the bytewise CRC's, on any host.
std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed = 0) noexcept;

/// Little-endian load and store of an unsigned word, whatever the host's
/// byte order; GCC folds each into one load or store on x86-64. For codecs
/// that fill a Serializer::append_raw run or read a Deserializer::get_raw
/// one.
template <class Word>
Word load_le(const std::byte* in) noexcept {
  Word v = 0;
  for (std::size_t i = 0; i < sizeof(Word); ++i) {
    v |= static_cast<Word>(static_cast<Word>(in[i]) << (8 * i));
  }
  return v;
}

template <class Word>
void store_le(std::byte* out, Word v) noexcept {
  for (std::size_t i = 0; i < sizeof(Word); ++i) {
    out[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// Appends scalars to a growable byte buffer, little-endian.
class Serializer {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern: exact round-trip,
  /// including NaN payloads and signed zeros.
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// u64 length prefix + raw bytes.
  void put_bytes(std::span<const std::byte> data);
  void put_string(std::string_view s);
  /// Raw bytes, no prefix (for framing layers that carry their own sizes).
  void put_raw(std::span<const std::byte> data);
  /// Grows the buffer by `n` bytes and returns them for the caller to fill:
  /// the vector writers encode in place, in one pass.
  std::span<std::byte> append_raw(std::size_t n);
  /// Capacity for `n` bytes in all (a writer that knows its final size).
  void reserve(std::size_t n) { buffer_.reserve(n); }

  const std::vector<std::byte>& bytes() const noexcept { return buffer_; }
  /// Moves the buffer out, leaving the serializer empty.
  std::vector<std::byte> release() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

/// Reads scalars back from a byte span; throws SerialError on under-run.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::byte> data) noexcept
      : data_(data) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();
  bool get_bool() { return get_u8() != 0; }
  std::vector<std::byte> get_bytes();
  std::string get_string();

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool exhausted() const noexcept { return remaining() == 0; }
  std::size_t offset() const noexcept { return offset_; }
  /// Advances past `n` bytes (throws SerialError when fewer remain).
  void skip(std::size_t n);
  /// The next `n` bytes, consumed: the mirror of Serializer::put_raw, with
  /// one bounds check for the whole run (throws SerialError when fewer
  /// remain).
  std::span<const std::byte> get_raw(std::size_t n);

  /// Guards an element count read from the payload before anything is
  /// reserved or sized for it. Each element takes at least `min_bytes`
  /// bytes of what remains, so a count above remaining() / min_bytes is
  /// corrupt: it throws SerialError (`what` names it) instead of reaching
  /// the allocator as bad_alloc or length_error.
  std::size_t checked_count(std::uint64_t n, std::size_t min_bytes,
                            const char* what) const;

  /// Semantic validation helper for load_state implementations: throws
  /// SerialError (not ContractViolation — the input is external data, not a
  /// caller bug) when `cond` is false.
  static void check(bool cond, const char* what) {
    if (!cond) throw SerialError(std::string("serial: ") + what);
  }

 private:
  void require(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// Vector helpers shared by the load/save hooks (u64 length prefix).
void put_f64_vec(Serializer& s, std::span<const double> v);
std::vector<double> get_f64_vec(Deserializer& d);
void put_u64_vec(Serializer& s, std::span<const std::uint64_t> v);
std::vector<std::uint64_t> get_u64_vec(Deserializer& d);
void put_u32_vec(Serializer& s, std::span<const std::uint32_t> v);
std::vector<std::uint32_t> get_u32_vec(Deserializer& d);

/// size_t vectors travel as u64 (the format is 64-bit regardless of host).
void put_size_vec(Serializer& s, std::span<const std::size_t> v);
std::vector<std::size_t> get_size_vec(Deserializer& d);
void put_u8_vec(Serializer& s, std::span<const std::uint8_t> v);
std::vector<std::uint8_t> get_u8_vec(Deserializer& d);

}  // namespace avcp
