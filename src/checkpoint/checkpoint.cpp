#include "checkpoint/checkpoint.h"

#include <cerrno>
#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>

#include "common/contracts.h"

namespace avcp::checkpoint {

namespace {

constexpr char kMagic[8] = {'A', 'V', 'C', 'P', 'C', 'K', 'P', 'T'};
// magic + version + round + section count; the u32 CRC follows.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;
// A section's id, payload size and CRC around its payload.
constexpr std::size_t kSectionFrameBytes = 4 + 8 + 4;

[[noreturn]] void fail(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

/// The current errno as an error_code; EIO when a stream failed without
/// setting errno (ofstream reports via badbit, not a code).
std::error_code errno_code() noexcept {
  return {errno != 0 ? errno : EIO, std::generic_category()};
}

}  // namespace

bool is_transient_fs_error(const std::error_code& ec) noexcept {
  if (!ec) return false;
  const std::error_condition cond = ec.default_error_condition();
  return cond == std::errc::interrupted ||
         cond == std::errc::resource_unavailable_try_again ||
         cond == std::errc::no_space_on_device ||
         cond == std::errc::device_or_resource_busy;
}

std::error_code retry_transient_fs(
    const std::function<std::error_code()>& op, const FsRetryPolicy& policy,
    const std::function<void(std::size_t)>& sleep) {
  AVCP_EXPECT(policy.attempts >= 1);
  std::size_t backoff = policy.backoff_initial_ms;
  std::error_code ec;
  for (std::size_t attempt = 0; attempt < policy.attempts; ++attempt) {
    ec = op();
    if (!ec || !is_transient_fs_error(ec)) return ec;
    if (attempt + 1 < policy.attempts) {
      if (sleep != nullptr) {
        sleep(backoff);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      backoff *= policy.backoff_factor;
    }
  }
  return ec;
}

Serializer& CheckpointWriter::section(std::uint32_t id) {
  for (const auto& [existing, payload] : sections_) {
    AVCP_EXPECT(existing != id);  // section ids are unique within a file
  }
  sections_.emplace_back(id, Serializer{});
  return sections_.back().second;
}

std::vector<std::byte> CheckpointWriter::encode() const {
  Serializer out;
  std::size_t image_bytes = kHeaderBytes + 4;
  for (const auto& [id, payload] : sections_) {
    image_bytes += kSectionFrameBytes + payload.size();
  }
  out.reserve(image_bytes);
  for (const char c : kMagic) out.put_u8(static_cast<std::uint8_t>(c));
  out.put_u32(kSchemaVersion);
  out.put_u64(round_);
  out.put_u32(static_cast<std::uint32_t>(sections_.size()));
  out.put_u32(crc32c(out.bytes()));
  for (const auto& [id, payload] : sections_) {
    // The section CRC covers the 12-byte section header too: a flipped id
    // or size byte must fail validation, not silently rename or re-frame
    // the section.
    const std::size_t section_start = out.bytes().size();
    out.put_u32(id);
    out.put_u64(payload.size());
    out.put_raw(payload.bytes());
    out.put_u32(crc32c(
        std::span<const std::byte>(out.bytes()).subspan(section_start)));
  }
  return out.release();
}

void CheckpointWriter::write(const std::filesystem::path& path) const {
  const std::vector<std::byte> image = encode();
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  // Both stages retry transient errors with backoff; each write attempt
  // restarts the tmp image from scratch (trunc), so the atomic
  // tmp-then-rename protocol — and with it the torn/corrupt detection
  // story — is unchanged.
  const std::error_code write_ec = retry_transient_fs([&] {
    errno = 0;
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return errno_code();
    file.write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    file.flush();
    if (!file) {
      const std::error_code failed = errno_code();
      std::error_code rm;
      std::filesystem::remove(tmp, rm);
      return failed;
    }
    return std::error_code{};
  });
  if (write_ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    fail("cannot write " + tmp.string() + ": " + write_ec.message());
  }
  const std::error_code rename_ec = retry_transient_fs([&] {
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return ec;
  });
  if (rename_ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    fail("rename to " + path.string() + " failed: " + rename_ec.message());
  }
}

void CheckpointWriter::write_torn(const std::filesystem::path& path,
                                  std::size_t keep_bytes) const {
  const std::vector<std::byte> image = encode();
  const std::size_t n = std::min(keep_bytes, image.size());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) fail("cannot open " + path.string() + " for torn write");
  file.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(n));
  file.flush();
  if (!file) fail("torn write to " + path.string() + " failed");
}

CheckpointReader CheckpointReader::parse(std::vector<std::byte> bytes) {
  CheckpointReader reader;
  reader.bytes_ = std::move(bytes);
  Deserializer d(reader.bytes_);
  try {
    for (const char c : kMagic) {
      if (d.get_u8() != static_cast<std::uint8_t>(c)) fail("bad magic");
    }
    const std::uint32_t version = d.get_u32();
    if (version != kSchemaVersion) {
      fail("unsupported schema version " + std::to_string(version) +
           " (expected " + std::to_string(kSchemaVersion) + ")");
    }
    reader.round_ = d.get_u64();
    const std::uint32_t count = d.get_u32();
    const std::uint32_t header_crc = d.get_u32();
    const auto header =
        std::span<const std::byte>(reader.bytes_).first(kHeaderBytes);
    if (header_crc != crc32c(header)) fail("header CRC mismatch");

    reader.sections_.reserve(d.checked_count(
        count, kSectionFrameBytes, "section count exceeds file"));
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t section_start = d.offset();
      const std::uint32_t id = d.get_u32();
      const std::uint64_t size = d.get_u64();
      if (size > d.remaining()) fail("truncated section payload");
      const std::size_t offset = d.offset();
      d.skip(static_cast<std::size_t>(size));
      const std::uint32_t crc = d.get_u32();
      const auto covered =
          std::span<const std::byte>(reader.bytes_)
              .subspan(section_start,
                       offset - section_start + static_cast<std::size_t>(size));
      if (crc != crc32c(covered)) fail("section CRC mismatch");
      for (const Section& s : reader.sections_) {
        if (s.id == id) fail("duplicate section id");
      }
      reader.sections_.push_back(
          Section{id, offset, static_cast<std::size_t>(size)});
    }
    if (!d.exhausted()) fail("trailing bytes after last section");
  } catch (const CheckpointError&) {
    throw;
  } catch (const SerialError&) {
    // A framing read ran off the end of the file: report it as the
    // checkpoint-level defect it is.
    fail("truncated file");
  }
  return reader;
}

CheckpointReader CheckpointReader::open(const std::filesystem::path& path) {
  // A directory opens as a stream too, and ext4 reports its end at
  // 2^63 - 1: only a regular file is sized and read.
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status)) {
    fail(path.string() + " is not a regular file");
  }
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) fail("cannot open " + path.string());
  const std::streamsize size = file.tellg();
  if (size < 0) fail("cannot size " + path.string());
  file.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) fail("cannot read " + path.string());
  return parse(std::move(bytes));
}

bool CheckpointReader::has(std::uint32_t id) const noexcept {
  for (const Section& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

Deserializer CheckpointReader::section(std::uint32_t id) const {
  for (const Section& s : sections_) {
    if (s.id == id) {
      return Deserializer(
          std::span<const std::byte>(bytes_).subspan(s.offset, s.size));
    }
  }
  fail("missing section " + std::to_string(id));
}

}  // namespace avcp::checkpoint
