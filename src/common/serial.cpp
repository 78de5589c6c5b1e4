#include "common/serial.h"

#include <array>
#include <bit>
#include <limits>

namespace avcp {

namespace {

/// Slicing-by-8 tables for CRC-32C (reflected 0x82F63B78), built at compile
/// time. t[0] is the bytewise table; t[k][b] is t[k-1][b] pushed through
/// one more zero byte, so t[k] gives a byte's contribution k bytes ahead of
/// the end of an 8-byte block.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables make_crc32c_tables() noexcept {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32c = make_crc32c_tables();

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed) noexcept {
  const Crc32cTables& t = kCrc32c;
  std::uint32_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ crc;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xffu];
  }
  return ~crc;
}

void Serializer::put_u8(std::uint8_t v) {
  buffer_.push_back(static_cast<std::byte>(v));
}

void Serializer::put_u32(std::uint32_t v) {
  std::array<std::byte, 4> le;
  store_le(le.data(), v);
  buffer_.insert(buffer_.end(), le.begin(), le.end());
}

void Serializer::put_u64(std::uint64_t v) {
  std::array<std::byte, 8> le;
  store_le(le.data(), v);
  buffer_.insert(buffer_.end(), le.begin(), le.end());
}

void Serializer::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void Serializer::put_bytes(std::span<const std::byte> data) {
  put_u64(data.size());
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Serializer::put_string(std::string_view s) {
  put_bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
}

void Serializer::put_raw(std::span<const std::byte> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::span<std::byte> Serializer::append_raw(std::size_t n) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + n);
  return std::span<std::byte>(buffer_).subspan(at);
}

void Deserializer::require(std::size_t n) const {
  if (remaining() < n) {
    throw SerialError("serial: read past end of payload");
  }
}

std::uint8_t Deserializer::get_u8() {
  require(1);
  return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint32_t Deserializer::get_u32() {
  return load_le<std::uint32_t>(get_raw(4).data());
}

std::uint64_t Deserializer::get_u64() {
  return load_le<std::uint64_t>(get_raw(8).data());
}

double Deserializer::get_f64() { return std::bit_cast<double>(get_u64()); }

void Deserializer::skip(std::size_t n) {
  require(n);
  offset_ += n;
}

std::span<const std::byte> Deserializer::get_raw(std::size_t n) {
  require(n);
  const std::span<const std::byte> out = data_.subspan(offset_, n);
  offset_ += n;
  return out;
}

std::size_t Deserializer::checked_count(std::uint64_t n,
                                        std::size_t min_bytes,
                                        const char* what) const {
  check(n <= remaining() / min_bytes, what);
  return static_cast<std::size_t>(n);
}

std::vector<std::byte> Deserializer::get_bytes() {
  const std::span<const std::byte> raw = get_raw(
      checked_count(get_u64(), 1, "byte-string length exceeds payload"));
  return std::vector<std::byte>(raw.begin(), raw.end());
}

std::string Deserializer::get_string() {
  const std::vector<std::byte> raw = get_bytes();
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

namespace {

/// Writes a u64 count, then every element as one little-endian `Word`,
/// into a run the buffer grows by once.
template <class Word, class T, class ToWord>
void put_words(Serializer& s, std::span<const T> v, ToWord to_word) {
  s.put_u64(v.size());
  std::byte* out = s.append_raw(v.size() * sizeof(Word)).data();
  for (const T& x : v) {
    store_le<Word>(out, to_word(x));
    out += sizeof(Word);
  }
}

/// Reads what put_words wrote: the count is checked against the payload
/// before the vector is sized, and the run is bounds-checked once.
template <class Word, class T, class FromWord>
std::vector<T> get_words(Deserializer& d, FromWord from_word) {
  const std::size_t n = d.checked_count(d.get_u64(), sizeof(Word),
                                        "vector length exceeds payload");
  const std::byte* in = d.get_raw(n * sizeof(Word)).data();
  std::vector<T> v(n);
  for (T& x : v) {
    x = from_word(load_le<Word>(in));
    in += sizeof(Word);
  }
  return v;
}

constexpr auto kSame = [](auto x) { return x; };

}  // namespace

void put_f64_vec(Serializer& s, std::span<const double> v) {
  put_words<std::uint64_t>(
      s, v, [](double x) { return std::bit_cast<std::uint64_t>(x); });
}

std::vector<double> get_f64_vec(Deserializer& d) {
  return get_words<std::uint64_t, double>(
      d, [](std::uint64_t x) { return std::bit_cast<double>(x); });
}

void put_u64_vec(Serializer& s, std::span<const std::uint64_t> v) {
  put_words<std::uint64_t>(s, v, kSame);
}

std::vector<std::uint64_t> get_u64_vec(Deserializer& d) {
  return get_words<std::uint64_t, std::uint64_t>(d, kSame);
}

void put_u32_vec(Serializer& s, std::span<const std::uint32_t> v) {
  put_words<std::uint32_t>(s, v, kSame);
}

std::vector<std::uint32_t> get_u32_vec(Deserializer& d) {
  return get_words<std::uint32_t, std::uint32_t>(d, kSame);
}

void put_size_vec(Serializer& s, std::span<const std::size_t> v) {
  put_words<std::uint64_t>(s, v, kSame);
}

std::vector<std::size_t> get_size_vec(Deserializer& d) {
  return get_words<std::uint64_t, std::size_t>(d, [](std::uint64_t x) {
    Deserializer::check(x <= std::numeric_limits<std::size_t>::max(),
                        "size value exceeds host size_t");
    return static_cast<std::size_t>(x);
  });
}

void put_u8_vec(Serializer& s, std::span<const std::uint8_t> v) {
  put_words<std::uint8_t>(s, v, kSame);
}

std::vector<std::uint8_t> get_u8_vec(Deserializer& d) {
  return get_words<std::uint8_t, std::uint8_t>(d, kSame);
}

}  // namespace avcp
