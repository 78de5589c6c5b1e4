#include "faults/fault_model.h"

#include <limits>

#include "common/contracts.h"
#include "common/rng.h"
#include "common/serial.h"

namespace avcp::faults {

namespace {

/// Distinct hash streams so e.g. upload and delivery faults of the same
/// (round, region) indices are independent.
enum Stream : std::uint64_t {
  kUpload = 0x75706c6f61646673ULL,
  kDelivery = 0x64656c6976657279ULL,
  kReport = 0x7265706f72746673ULL,
  kOutage = 0x6f75746167656673ULL,
};

/// Absorbs one value into the running hash (splitmix64 finalizer over a
/// boost-style combine).
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

inline bool valid_rate(double r) noexcept { return r >= 0.0 && r <= 1.0; }

}  // namespace

bool FaultParams::any() const noexcept {
  if (upload_loss_rate > 0.0 || delivery_loss_rate > 0.0 ||
      report_loss_rate > 0.0 || outage_rate > 0.0) {
    return true;
  }
  for (const OutageWindow& w : outages) {
    if (w.duration > 0) return true;
  }
  return false;
}

FaultCounters& FaultCounters::operator+=(const FaultCounters& other) noexcept {
  uploads_lost += other.uploads_lost;
  deliveries_lost += other.deliveries_lost;
  reports_lost += other.reports_lost;
  region_outages += other.region_outages;
  return *this;
}

void FaultCounters::save_state(Serializer& s) const {
  s.put_u64(uploads_lost);
  s.put_u64(deliveries_lost);
  s.put_u64(reports_lost);
  s.put_u64(region_outages);
}

void FaultCounters::load_state(Deserializer& d) {
  uploads_lost = static_cast<std::size_t>(d.get_u64());
  deliveries_lost = static_cast<std::size_t>(d.get_u64());
  reports_lost = static_cast<std::size_t>(d.get_u64());
  region_outages = static_cast<std::size_t>(d.get_u64());
}

void FaultParams::validate() const {
  AVCP_EXPECT(valid_rate(upload_loss_rate));
  AVCP_EXPECT(valid_rate(delivery_loss_rate));
  AVCP_EXPECT(valid_rate(report_loss_rate));
  AVCP_EXPECT(valid_rate(outage_rate));
  for (const OutageWindow& w : outages) {
    // The window end first_round + duration must be representable: an
    // overflowing end silently truncates the schedule at SIZE_MAX and is
    // invariably a caller arithmetic bug, so reject it up front.
    AVCP_EXPECT(w.duration <=
                std::numeric_limits<std::size_t>::max() - w.first_round);
  }
}

FaultModel::FaultModel(FaultParams params)
    : params_(std::move(params)), active_(params_.any()) {
  params_.validate();
}

double FaultModel::hash_uniform(std::uint64_t stream, std::uint64_t a,
                                std::uint64_t b, std::uint64_t c,
                                std::uint64_t d) const noexcept {
  std::uint64_t h = mix(params_.seed, stream);
  h = mix(h, a);
  h = mix(h, b);
  h = mix(h, c);
  h = mix(h, d);
  // 53 mantissa bits -> uniform in [0, 1), as Rng::uniform does.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultModel::upload_lost(std::size_t round, core::RegionId region,
                             std::size_t exchange,
                             std::size_t vehicle) const noexcept {
  if (params_.upload_loss_rate <= 0.0) return false;
  return hash_uniform(kUpload, round, region, exchange, vehicle) <
         params_.upload_loss_rate;
}

bool FaultModel::delivery_lost(std::size_t round, core::RegionId region,
                               std::size_t exchange, std::size_t receiver,
                               std::size_t sender) const noexcept {
  if (params_.delivery_loss_rate <= 0.0) return false;
  // Fold receiver and sender into one key so the predicate keeps the
  // 4-operand hash; exchanges and fleets are far below 2^32.
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(receiver) << 32) |
      static_cast<std::uint64_t>(sender & 0xffffffffULL);
  return hash_uniform(kDelivery, round, region, exchange, pair) <
         params_.delivery_loss_rate;
}

bool FaultModel::report_lost(std::size_t round,
                             core::RegionId region) const noexcept {
  if (params_.report_loss_rate <= 0.0) return false;
  return hash_uniform(kReport, round, region, 0, 0) <
         params_.report_loss_rate;
}

bool FaultModel::region_down(std::size_t round,
                             core::RegionId region) const noexcept {
  for (const OutageWindow& w : params_.outages) {
    if (w.covers(round, region)) return true;
  }
  if (params_.outage_rate <= 0.0) return false;
  return hash_uniform(kOutage, round, region, 0, 0) < params_.outage_rate;
}

}  // namespace avcp::faults
