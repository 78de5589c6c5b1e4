#include "sim/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp::sim {

namespace {
// derive_seed tag for the measured-fitness streams (disjoint from the
// revision engine, which is seeded directly from params.seed).
constexpr std::uint64_t kTraceMeasureStream = 0xA4;

sim::TracePresenceBuilder presence_from_fixes(
    std::span<const trace::GpsFix> fixes,
    std::span<const cluster::RegionId> region_of_segment,
    std::size_t num_vehicles, std::size_t num_regions, double round_s,
    double trace_duration_s) {
  sim::TracePresenceBuilder builder(region_of_segment, num_vehicles,
                                    num_regions, round_s, trace_duration_s);
  for (const trace::GpsFix& fix : fixes) builder.add(fix);
  return builder;
}
}  // namespace

TracePresenceBuilder::TracePresenceBuilder(
    std::span<const cluster::RegionId> region_of_segment,
    std::size_t num_vehicles, std::size_t num_regions, double round_s,
    double trace_duration_s)
    : region_of_segment_(region_of_segment),
      num_vehicles_(num_vehicles),
      num_regions_(num_regions),
      round_s_(round_s) {
  AVCP_EXPECT(round_s > 0.0);
  AVCP_EXPECT(trace_duration_s > 0.0);
  AVCP_EXPECT(num_vehicles >= 1);
  AVCP_EXPECT(num_regions >= 1);
  const auto num_rounds =
      static_cast<std::size_t>(std::ceil(trace_duration_s / round_s));
  AVCP_EXPECT(num_rounds >= 1);
  tally_.resize(num_rounds);
}

void TracePresenceBuilder::add(const trace::GpsFix& fix) {
  AVCP_EXPECT(fix.vehicle < num_vehicles_);
  AVCP_EXPECT(fix.segment < region_of_segment_.size());
  AVCP_EXPECT(fix.time_s >= 0.0);  // false for NaN too
  // Range-check the quotient as a double: casting one beyond size_t is
  // undefined.
  const double round = fix.time_s / round_s_;
  if (round >= static_cast<double>(tally_.size())) return;
  const core::RegionId region = region_of_segment_[fix.segment];
  AVCP_EXPECT(region < num_regions_);
  ++tally_[static_cast<std::size_t>(round)][fix.vehicle][region];
}

std::vector<std::vector<std::pair<trace::VehicleId, core::RegionId>>>
TracePresenceBuilder::build() && {
  std::vector<std::vector<std::pair<trace::VehicleId, core::RegionId>>>
      presence(tally_.size());
  for (std::size_t r = 0; r < tally_.size(); ++r) {
    for (const auto& [vehicle, regions] : tally_[r]) {
      core::RegionId modal = 0;
      std::size_t best = 0;
      for (const auto& [region, count] : regions) {
        if (count > best) {
          best = count;
          modal = region;
        }
      }
      presence[r].emplace_back(vehicle, modal);
    }
    tally_[r].clear();
  }
  return presence;
}

TraceDrivenSim::TraceDrivenSim(const core::MultiRegionGame& game,
                               std::span<const trace::GpsFix> fixes,
                               std::span<const cluster::RegionId> region_of_segment,
                               std::size_t num_vehicles,
                               double trace_duration_s,
                               TraceReplayParams params)
    : TraceDrivenSim(game,
                     presence_from_fixes(fixes, region_of_segment,
                                         num_vehicles, game.num_regions(),
                                         params.round_s, trace_duration_s),
                     params) {}

TraceDrivenSim::TraceDrivenSim(const core::MultiRegionGame& game,
                               TracePresenceBuilder&& presence,
                               TraceReplayParams params)
    : game_(game), params_(params), rng_(params.seed) {
  AVCP_EXPECT(presence.num_regions() == game.num_regions());
  AVCP_EXPECT(params_.revision_rate >= 0.0 && params_.revision_rate <= 1.0);
  AVCP_EXPECT(params_.imitation_scale > 0.0);

  const std::size_t num_vehicles = presence.num_vehicles();
  presence_ = std::move(presence).build();

  decisions_.assign(num_vehicles, 0);
  state_ = game.uniform_state();
  if (params_.measure_data_plane) {
    for (core::RegionId i = 0; i < game.num_regions(); ++i) {
      exchanges_.emplace_back(
          game, params_.exchange,
          derive_seed(params_.seed, {kTraceMeasureStream, i}));
    }
  }
}

void TraceDrivenSim::init_from(const core::GameState& state) {
  AVCP_EXPECT(state.p.size() == game_.num_regions());
  for (const auto& row : state.p) core::check_distribution(row);
  for (auto& decision : decisions_) {
    decision = static_cast<core::DecisionId>(rng_.weighted_index(state.p[0]));
  }
  state_ = game_.uniform_state();
  if (!presence_.empty()) refresh_state(presence_.front());
  round_ = 0;
}

std::size_t TraceDrivenSim::present_vehicles(std::size_t round) const {
  AVCP_EXPECT(round < presence_.size());
  return presence_[round].size();
}

void TraceDrivenSim::refresh_state(
    const std::vector<std::pair<trace::VehicleId, core::RegionId>>& present) {
  const std::size_t k = game_.num_decisions();
  std::vector<std::vector<double>> counts(game_.num_regions(),
                                          std::vector<double>(k, 0.0));
  std::vector<double> totals(game_.num_regions(), 0.0);
  for (const auto& [vehicle, region] : present) {
    counts[region][decisions_[vehicle]] += 1.0;
    totals[region] += 1.0;
  }
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    if (totals[i] <= 0.0) continue;  // dormant region keeps its distribution
    for (std::size_t d = 0; d < k; ++d) {
      state_.p[i][d] = counts[i][d] / totals[i];
    }
  }
}

void TraceDrivenSim::step(std::span<const double> x) {
  AVCP_EXPECT(x.size() == game_.num_regions());
  const auto& present =
      presence_[std::min(round_, presence_.size() - 1)];
  refresh_state(present);

  // Fitness of every decision in every region against the snapshot:
  // analytic Eq. (4), or a measured data-plane exchange over the present
  // mix (hash-derived streams; the revision engine rng_ is untouched).
  std::vector<std::vector<double>> q(game_.num_regions());
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    q[i] = params_.measure_data_plane
               ? exchanges_[i].per_decision_fitness(
                     state_.p[i], game_.region(i).beta, x[i],
                     derive_seed(params_.seed, {kTraceMeasureStream, round_, i}))
               : game_.region_fitness(state_, x, i);
  }

  // Group present vehicles by region for peer sampling.
  std::vector<std::vector<trace::VehicleId>> by_region(game_.num_regions());
  for (const auto& [vehicle, region] : present) {
    by_region[region].push_back(vehicle);
  }

  // Pairwise proportional imitation against the start-of-round snapshot.
  const std::vector<core::DecisionId> before = decisions_;
  for (const auto& [vehicle, region] : present) {
    const auto& peers = by_region[region];
    if (peers.size() < 2) continue;
    if (!rng_.bernoulli(params_.revision_rate)) continue;
    trace::VehicleId peer = vehicle;
    for (int attempt = 0; attempt < 8 && peer == vehicle; ++attempt) {
      peer = peers[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(peers.size()) - 1))];
    }
    if (peer == vehicle) continue;
    const core::DecisionId mine = before[vehicle];
    const core::DecisionId theirs = before[peer];
    if (mine == theirs) continue;
    const double gain = q[region][theirs] - q[region][mine];
    if (gain <= 0.0) continue;
    if (rng_.bernoulli(std::min(1.0, params_.imitation_scale * gain))) {
      decisions_[vehicle] = theirs;
    }
  }

  refresh_state(present);
  ++round_;
}

void TraceDrivenSim::save_state(Serializer& s) const {
  s.put_u64(game_.num_regions());
  s.put_u64(decisions_.size());
  s.put_u64(params_.seed);
  s.put_bool(params_.measure_data_plane);
  s.put_u64(round_);
  rng_.save_state(s);
  put_u32_vec(s, decisions_);
  state_.save_state(s);
  for (const MeasuredExchange& exchange : exchanges_) {
    exchange.save_state(s);
  }
}

void TraceDrivenSim::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == game_.num_regions(),
                      "TraceReplay snapshot: region count mismatch");
  Deserializer::check(d.get_u64() == decisions_.size(),
                      "TraceReplay snapshot: vehicle count mismatch");
  Deserializer::check(d.get_u64() == params_.seed,
                      "TraceReplay snapshot: seed mismatch");
  Deserializer::check(d.get_bool() == params_.measure_data_plane,
                      "TraceReplay snapshot: fitness mode mismatch");
  round_ = d.get_u64();
  rng_.load_state(d);
  std::vector<core::DecisionId> decisions = get_u32_vec(d);
  Deserializer::check(decisions.size() == decisions_.size(),
                      "TraceReplay snapshot: decisions size mismatch");
  for (const core::DecisionId decision : decisions) {
    Deserializer::check(decision < game_.num_decisions(),
                        "TraceReplay snapshot: decision id out of range");
  }
  decisions_ = std::move(decisions);
  state_.load_state(d);
  for (MeasuredExchange& exchange : exchanges_) {
    exchange.load_state(d);
  }
}

}  // namespace avcp::sim
