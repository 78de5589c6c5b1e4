#include "system/fleet_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/imitation.h"

namespace avcp::system {

namespace {

// Hash-derived stream tags (disjoint from the other engines' tags).
constexpr std::uint64_t kUniverseStream = 0xE0;
constexpr std::uint64_t kPlaneStream = 0xE1;
constexpr std::uint64_t kFillStream = 0xE2;
constexpr std::uint64_t kReviseStream = 0xE3;
constexpr std::uint64_t kNetSampleStream = 0xE4;

perception::DataUniverse make_universe(const FleetEngineParams& params) {
  Rng rng(derive_seed(params.seed, {kUniverseStream}));
  std::vector<double> sensor_privacy(params.num_sensors);
  for (std::size_t s = 0; s < params.num_sensors; ++s) {
    sensor_privacy[s] = 1.0 / static_cast<double>(s + 1);
  }
  return perception::DataUniverse::synthetic(
      params.num_sensors, params.items_per_sensor, sensor_privacy, rng);
}

std::uint32_t fraction_window(double fraction, std::size_t omega) {
  const auto w = static_cast<std::uint32_t>(
      std::llround(fraction * static_cast<double>(omega)));
  return std::clamp<std::uint32_t>(w, 1, static_cast<std::uint32_t>(omega));
}

void fnv_fold(std::uint64_t& h, std::uint64_t word) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xFF;
    h *= kPrime;
  }
}

}  // namespace

ShardedFleetEngine::ShardedFleetEngine(FleetEngineParams params)
    : params_(params),
      lattice_(params.num_sensors),
      universe_(make_universe(params)),
      pool_(params.clamp_lanes ? ThreadPool::clamped_lanes(params.num_threads)
                               : params.num_threads) {
  AVCP_EXPECT(params.num_shards >= 1);
  AVCP_EXPECT(params.collect_fraction > 0.0 && params.collect_fraction <= 1.0);
  AVCP_EXPECT(params.desire_fraction > 0.0 && params.desire_fraction <= 1.0);
  AVCP_EXPECT(params.reputation_decay >= 0.0 && params.reputation_decay <= 1.0);
  params.net.validate();
  if (params.inter_shard_exchange) {
    AVCP_EXPECT(params.num_shards >= 2);
    AVCP_EXPECT(params.exchange_fraction > 0.0 &&
                params.exchange_fraction <= 1.0);
    AVCP_EXPECT(params.exchange_sample_cap >= 1);
    // Ring topology: link s delivers into shard s from its predecessor, so
    // shard s publishes its sample on link (s+1) % S.
    link_model_.emplace(params.net);
    const std::size_t num = params.num_shards;
    channel_.emplace(*link_model_, static_cast<std::uint32_t>(num));
    for (std::size_t s = 0; s < num; ++s) {
      const auto src = static_cast<std::uint32_t>((s + num - 1) % num);
      const std::uint32_t link =
          channel_->add_link(src, static_cast<std::uint32_t>(s));
      AVCP_ENSURE(link == s);
    }
    samples_ = net::PayloadRing<Sample>(num, params.net.ring_slots());
  }
  shards_.resize(params.num_shards);
  shard_cost_.resize(params.num_shards, 0.0);
  const std::size_t omega = universe_.size();
  collect_window_ = fraction_window(params.collect_fraction, omega);
  desire_window_ = fraction_window(params.desire_fraction, omega);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].plane = std::make_unique<perception::EdgeServerDataPlane>(
        lattice_, universe_, params.access,
        derive_seed(params.seed, {kPlaneStream, s}));
  }
}

void ShardedFleetEngine::ingest(core::FleetSource& source) {
  std::vector<core::VehicleSeed> batch(std::max<std::size_t>(params_.ingest_batch, 1));
  const std::size_t num_shards = shards_.size();
  for (;;) {
    const std::size_t got = source.next_batch(batch);
    for (std::size_t i = 0; i < got; ++i) {
      const core::VehicleSeed& seed = batch[i];
      AVCP_EXPECT(seed.decision < lattice_.num_decisions());
      shards_[seed.id % num_shards].fleet.add(seed.decision);
    }
    total_ += got;
    if (got < batch.size()) break;
  }
  prepared_ = false;
}

void ShardedFleetEngine::prepare() {
  const std::size_t k = lattice_.num_decisions();
  const std::size_t per_vehicle = collect_window_ + desire_window_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    const std::size_t n = sh.fleet.size();
    sh.fleet.reserve(n, n * per_vehicle);
    sh.plane->reserve_workspace(n, collect_window_);
    sh.outcome.utility.reserve(n);
    sh.outcome.privacy.reserve(n);
    sh.before.reserve(n);
    sh.hist.assign(k, 0);
    shard_cost_[s] = static_cast<double>(n) * static_cast<double>(k);
  }
  chunk_plan_ = balanced_chunks(shard_cost_, 4 * pool_.size());
  prepared_ = true;
}

void ShardedFleetEngine::exchange_shard(std::size_t s, double sharing_ratio) {
  Shard& sh = shards_[s];
  perception::FleetSoA& fleet = sh.fleet;
  const std::size_t n = fleet.size();
  Rng rng(derive_seed(params_.seed, {kFillStream, round_, s}));

  // Round scene synthesis: one contiguous collected window and one desired
  // window per vehicle (one uniform draw each). Windows keep the arena
  // exactly n·(mc+md) items and every set trivially sorted.
  fleet.reset_items();
  const auto omega = static_cast<std::int64_t>(universe_.size());
  for (std::size_t v = 0; v < n; ++v) {
    std::span<perception::ItemId> c = fleet.alloc_collected(v, collect_window_);
    auto start = static_cast<perception::ItemId>(
        rng.uniform_int(0, omega - collect_window_));
    for (std::uint32_t i = 0; i < collect_window_; ++i) c[i] = start + i;
    std::span<perception::ItemId> d = fleet.alloc_desired(v, desire_window_);
    start = static_cast<perception::ItemId>(
        rng.uniform_int(0, omega - desire_window_));
    for (std::uint32_t i = 0; i < desire_window_; ++i) d[i] = start + i;
  }

  sh.plane->run_round_into(fleet.view(), sharing_ratio, no_faults_,
                           no_server_items_, params_.mode, sh.outcome);

  // Fitness fold (DataUniverse::realized_fitness, shared with the system
  // plant); reputation is an EWMA over realised utility.
  const double decay = params_.reputation_decay;
  std::span<double> fitness = fleet.fitness();
  std::span<double> reputation = fleet.reputation();
  double sum_utility = 0.0;
  double sum_privacy = 0.0;
  double sum_fitness = 0.0;
  double sum_reputation = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const double f = universe_.realized_fitness(
        params_.beta, sh.outcome.utility[v], sh.outcome.privacy[v],
        fleet.collected_of(v));
    fitness[v] = f;
    reputation[v] = decay * reputation[v] + (1.0 - decay) * sh.outcome.utility[v];
    sum_utility += sh.outcome.utility[v];
    sum_privacy += sh.outcome.privacy[v];
    sum_fitness += f;
    sum_reputation += reputation[v];
  }
  sh.sum_utility = sum_utility;
  sh.sum_privacy = sum_privacy;
  sh.sum_fitness = sum_fitness;
  sh.sum_reputation = sum_reputation;
  sh.exposed_privacy = sh.outcome.exposed_privacy;
  sh.deliveries = sh.outcome.deliveries;

  if (channel_) {
    // Outbound sample, written straight into this shard's payload ring
    // (slot round_ % slots is shard-owned this round; consumers only read
    // other rings, after the stage barrier and the serial transport step).
    // The sample draws ride their own stream so the scene synthesis above
    // consumes the exact same draws with the transport on or off.
    Sample& sample = samples_.publish(s, round_);
    sample.x = sharing_ratio;
    sample.fleet.clear();
    if (n > 0) {
      const auto want = static_cast<std::size_t>(std::ceil(
          params_.exchange_fraction * static_cast<double>(n)));
      const std::size_t count =
          std::min({std::max<std::size_t>(want, 1),
                    params_.exchange_sample_cap, n});
      Rng srng(derive_seed(params_.seed, {kNetSampleStream, round_, s}));
      const perception::FleetView view = fleet.view();
      for (std::size_t i = 0; i < count; ++i) {
        const auto v = static_cast<std::size_t>(
            srng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        sample.fleet.add(view, v);
      }
    }
  }
}

void ShardedFleetEngine::consume_shard(std::size_t s) {
  Shard& sh = shards_[s];
  sh.cross_utility = 0.0;
  sh.net_blind = 0;
  const std::uint64_t pe =
      channel_->consumable(static_cast<std::uint32_t>(s), round_);
  if (pe == net::ExchangeChannel::kNothing) {
    // Nothing usable within max_staleness: local-only revision this round.
    sh.net_blind = 1;
    return;
  }
  const std::size_t num = shards_.size();
  const Sample& sample = samples_.consume((s + num - 1) % num, pe);
  if (sample.fleet.size() == 0 || sh.fleet.size() == 0) return;
  sh.plane->run_directional_into(sample.fleet.view(), sh.fleet.view(),
                                 sample.x, params_.mode, sh.dout);
  std::span<double> fitness = sh.fleet.fitness();
  double cross = 0.0;
  for (std::size_t v = 0; v < sh.fleet.size(); ++v) {
    const double gain = sh.dout.marginal_utility[v];
    fitness[v] += params_.beta * gain;
    cross += gain;
  }
  sh.cross_utility = cross;
  sh.sum_fitness += params_.beta * cross;
  sh.deliveries += sh.dout.deliveries;
}

void ShardedFleetEngine::revise_shard(std::size_t s) {
  Shard& sh = shards_[s];
  if (channel_) consume_shard(s);
  Rng rng(derive_seed(params_.seed, {kReviseStream, round_, s}));
  std::span<core::DecisionId> decisions = sh.fleet.decisions();
  std::span<const double> fitness = sh.fleet.fitness();
  const std::size_t n = decisions.size();
  sh.before.assign(decisions.begin(), decisions.end());
  core::imitate(
      sh.before, sh.before, params_.revision_rate, params_.imitation_scale,
      rng, [](std::size_t) { return false; },
      [&](std::size_t v) { return fitness[v]; },
      [&](std::size_t v, core::DecisionId d) { decisions[v] = d; });
  std::fill(sh.hist.begin(), sh.hist.end(), 0);
  for (std::size_t v = 0; v < n; ++v) ++sh.hist[decisions[v]];
}

void ShardedFleetEngine::run_round_into(double sharing_ratio,
                                        FleetRoundStats& out) {
  AVCP_EXPECT(sharing_ratio >= 0.0 && sharing_ratio <= 1.0);
  if (!prepared_) prepare();

  auto stage_a = [&](std::size_t s) { exchange_shard(s, sharing_ratio); };
  auto stage_b = [&](std::size_t s) { revise_shard(s); };
  std::size_t net_delivered = 0;
  std::size_t net_dropped = 0;
  if (!channel_) {
    const ThreadPool::Stage stages[] = {
        {shards_.size(), IndexFnRef(stage_a), 0, chunk_plan_},
        {shards_.size(), IndexFnRef(stage_b), 0, chunk_plan_},
    };
    pool_.run_batch(stages);
  } else {
    // Transport rounds split the fused dispatch: sample/exchange, then a
    // serial transport step on the control thread (thread-count invariant
    // by construction), then consume/revise.
    const ThreadPool::Stage stage_a_only[] = {
        {shards_.size(), IndexFnRef(stage_a), 0, chunk_plan_},
    };
    pool_.run_batch(stage_a_only);
    const net::ExchangeChannel::Counters before = channel_->counters();
    const std::size_t num = shards_.size();
    for (std::size_t s = 0; s < num; ++s) {
      channel_->publish(static_cast<std::uint32_t>((s + 1) % num), round_);
    }
    channel_->resolve_round(round_);
    const net::ExchangeChannel::Counters& after = channel_->counters();
    net_delivered = after.delivered - before.delivered;
    net_dropped = (after.dropped - before.dropped) +
                  (after.severed - before.severed);
    const ThreadPool::Stage stage_b_only[] = {
        {shards_.size(), IndexFnRef(stage_b), 0, chunk_plan_},
    };
    pool_.run_batch(stage_b_only);
  }
  ++round_;

  // Caller-side fold in shard order (the determinism protocol's ordered
  // reduction).
  const std::size_t k = lattice_.num_decisions();
  out.vehicles = total_;
  out.decision_share.assign(k, 0.0);
  double sum_utility = 0.0;
  double sum_privacy = 0.0;
  double exposed = 0.0;
  double sum_fitness = 0.0;
  double sum_reputation = 0.0;
  std::size_t deliveries = 0;
  double cross_utility = 0.0;
  std::size_t net_blind = 0;
  for (const Shard& sh : shards_) {
    sum_utility += sh.sum_utility;
    sum_privacy += sh.sum_privacy;
    exposed += sh.exposed_privacy;
    sum_fitness += sh.sum_fitness;
    sum_reputation += sh.sum_reputation;
    deliveries += sh.deliveries;
    cross_utility += sh.cross_utility;
    net_blind += sh.net_blind;
    for (std::size_t d = 0; d < k; ++d) {
      out.decision_share[d] += static_cast<double>(sh.hist[d]);
    }
  }
  out.cross_utility = cross_utility;
  out.net_delivered = net_delivered;
  out.net_dropped = net_dropped;
  out.net_blind = channel_ ? net_blind : 0;
  const auto nv = static_cast<double>(total_);
  out.mean_utility = total_ > 0 ? sum_utility / nv : 0.0;
  out.mean_privacy = total_ > 0 ? sum_privacy / nv : 0.0;
  out.exposed_privacy = exposed;
  out.mean_fitness = total_ > 0 ? sum_fitness / nv : 0.0;
  out.mean_reputation = total_ > 0 ? sum_reputation / nv : 0.0;
  out.deliveries = deliveries;
  if (total_ > 0) {
    for (double& share : out.decision_share) share /= nv;
  }
}

FleetRoundStats ShardedFleetEngine::run_round(double sharing_ratio) {
  FleetRoundStats out;
  run_round_into(sharing_ratio, out);
  return out;
}

std::uint64_t ShardedFleetEngine::state_hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const Shard& sh : shards_) {
    const perception::FleetSoA& fleet = sh.fleet;
    const std::size_t n = fleet.size();
    for (std::size_t v = 0; v < n; ++v) {
      fnv_fold(h, fleet.decision(v));
    }
    for (const double f : fleet.fitness()) {
      fnv_fold(h, std::bit_cast<std::uint64_t>(f));
    }
    for (const double r : fleet.reputation()) {
      fnv_fold(h, std::bit_cast<std::uint64_t>(r));
    }
  }
  return h;
}

}  // namespace avcp::system
