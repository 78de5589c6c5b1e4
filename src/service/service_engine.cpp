#include "service/service_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/imitation.h"

namespace avcp::service {

namespace {

// Stream tags. kInitStream / kStepStream are AgentBasedSim's tags on
// purpose: a zero-churn fleet service must consume the exact same draws in
// the exact same order as the batch simulator, so the two trajectories are
// bit-identical. Service-only consumers get their own tags.
constexpr std::uint64_t kInitStream = 0xA1;
constexpr std::uint64_t kStepStream = 0xA2;
constexpr std::uint64_t kJoinDecisionStream = 0xB1;
constexpr std::uint64_t kAttackerStream = 0xB2;
constexpr std::uint64_t kExploitStream = 0xB3;
constexpr std::uint64_t kSourceSegmentStream = 0xB4;

inline bool valid_rate(double r) noexcept { return r >= 0.0 && r <= 1.0; }

/// i64 <-> u64 via two's complement, for serializing signed load deltas.
inline std::uint64_t encode_i64(std::int64_t v) noexcept {
  return static_cast<std::uint64_t>(v);
}
inline std::int64_t decode_i64(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v);
}

}  // namespace

void ServiceParams::validate() const {
  AVCP_EXPECT(vehicles_per_region >= 2);
  AVCP_EXPECT(valid_rate(revision_rate));
  AVCP_EXPECT(imitation_scale > 0.0);
  AVCP_EXPECT(num_threads <= 4096);
  AVCP_EXPECT(valid_rate(attacker_fraction));
  AVCP_EXPECT(valid_rate(churn.leave_rate));
  AVCP_EXPECT(valid_rate(churn.migrate_rate));
  AVCP_EXPECT(valid_rate(churn.join_rate));
  AVCP_EXPECT(degraded.max_step > 0.0 && degraded.max_step <= 1.0);
  AVCP_EXPECT(valid_rate(degraded.decay_target));
  AVCP_EXPECT(degraded.decay_step >= 0.0);
  reputation.validate();
  AVCP_EXPECT(exploit_patience >= 1);
  AVCP_EXPECT(std::isfinite(congestion_alpha) && congestion_alpha >= 0.0);
  // The budget bounds how long maintenance may be shed; an unbounded
  // budget would let an adversarial churn pattern starve re-clustering
  // forever, so cap it explicitly.
  AVCP_EXPECT(staleness_budget <= 1000000);
  net.validate();
}

void ServiceCounters::save_state(Serializer& s) const {
  s.put_u64(epochs);
  s.put_u64(joins);
  s.put_u64(leaves);
  s.put_u64(migrations);
  s.put_u64(reclusters);
  s.put_u64(recluster_deferred);
  s.put_u64(betweenness_chunks_recomputed);
  s.put_u64(outage_region_epochs);
  s.put_u64(quarantines);
  s.put_u64(releases);
  s.put_u64(exploit_rejoins);
}

void ServiceCounters::load_state(Deserializer& d) {
  epochs = d.get_u64();
  joins = d.get_u64();
  leaves = d.get_u64();
  migrations = d.get_u64();
  reclusters = d.get_u64();
  recluster_deferred = d.get_u64();
  betweenness_chunks_recomputed = d.get_u64();
  outage_region_epochs = d.get_u64();
  quarantines = d.get_u64();
  releases = d.get_u64();
  exploit_rejoins = d.get_u64();
}

ServiceEngine::ServiceEngine(const core::MultiRegionGame& game,
                             core::Controller& inner,
                             const roadnet::RoadGraph* graph,
                             ServiceParams params,
                             const faults::FaultModel* faults)
    : game_(game),
      graph_(graph),
      params_(params),
      inert_faults_(faults::FaultParams{}),
      faults_(faults != nullptr ? faults : &inert_faults_),
      events_(params.churn),
      pool_(ThreadPool::clamped_lanes(params.num_threads)) {
  params_.validate();
  controller_.emplace(inner, *faults_, params_.degraded);
  AVCP_EXPECT(graph_ != nullptr);
  AVCP_EXPECT(graph_->finalized());
  cluster::IncrementalClusteringOptions copts;
  copts.clustering.num_regions =
      static_cast<std::uint32_t>(game_.num_regions());
  copts.betweenness.num_threads = params_.num_threads;
  copts.congestion_alpha = params_.congestion_alpha;
  clustering_.emplace(*graph_, copts);
  pending_.assign(graph_->num_segments(), 0);
  members_.resize(game_.num_regions());
  before_.resize(game_.num_regions());
  down_.assign(game_.num_regions(), 0);
  cost_.resize(game_.num_regions());
  q_.resize(game_.num_regions());
  if (params_.net.active()) {
    // Star backhaul: region r owns link r toward the cloud hub, which sits
    // at node id num_regions so partition windows can cut any subset of
    // regions away from it.
    link_model_.emplace(params_.net);
    const auto cloud = static_cast<std::uint32_t>(game_.num_regions());
    channel_.emplace(*link_model_, cloud + 1);
    for (core::RegionId r = 0; r < game_.num_regions(); ++r) {
      const std::uint32_t link =
          channel_->add_link(static_cast<std::uint32_t>(r), cloud);
      AVCP_ENSURE(link == r);
    }
    reports_ = net::PayloadRing<std::vector<double>>(
        game_.num_regions(), params_.net.ring_slots());
    fresh_.assign(game_.num_regions(), 0);
  }
}

bool ServiceEngine::designated_attacker(std::uint64_t identity) const noexcept {
  // Keyed on the stable identity, not the current id: a churn-exploit
  // rejoin mints a fresh id but the vehicle stays the attacker it was.
  // identity == id for every first join, so pre-exploit trajectories are
  // bit-identical to the id-keyed designation.
  if (params_.attacker_fraction <= 0.0) return false;
  Rng rng(derive_seed(params_.seed, {kAttackerStream, identity}));
  return rng.uniform() < params_.attacker_fraction;
}

void ServiceEngine::reset(const core::GameState& initial,
                          std::vector<double> x0) {
  AVCP_EXPECT(initial.p.size() == game_.num_regions());
  AVCP_EXPECT(x0.size() == game_.num_regions());
  for (const auto& row : initial.p) core::check_distribution(row);

  epoch_ = 0;
  next_id_ = 0;
  staleness_ = 0;
  counters_ = {};
  state_ = initial;
  observed_ = initial;
  x_ = std::move(x0);
  controller_->reset();
  if (channel_) {
    channel_->reset();
    reports_.reset();
  }
  std::fill(down_.begin(), down_.end(), 0);
  fleet_.clear();
}

void ServiceEngine::place_fleet() {
  // Seed the congestion picture with the initial placement, then re-derive
  // every vehicle's region in case the load-coupled weights moved a
  // boundary during set_loads.
  std::vector<std::int64_t> loads(graph_->num_segments(), 0);
  for (const VehicleRecord& rec : fleet_) ++loads[rec.segment];
  clustering_->set_loads(loads);
  std::fill(pending_.begin(), pending_.end(), 0);
  reassign_regions();
}

void ServiceEngine::init(const core::GameState& initial,
                         std::vector<double> x0) {
  reset(initial, std::move(x0));

  // Region-major fleet seeding over the clustering's current regions, one
  // init stream per region — AgentBasedSim::init_from with epoch 0.
  const cluster::Clustering& cl = clustering_->clustering();
  for (core::RegionId r = 0; r < game_.num_regions(); ++r) {
    Rng rng(derive_seed(params_.seed, {kInitStream, 0, r}));
    const std::vector<roadnet::SegmentId>& segs = cl.members[r];
    AVCP_EXPECT(!segs.empty());
    for (std::size_t j = 0; j < params_.vehicles_per_region; ++j) {
      VehicleRecord rec;
      rec.id = next_id_++;
      rec.identity = rec.id;
      rec.segment = segs[j % segs.size()];
      rec.region = r;
      rec.decision =
          static_cast<core::DecisionId>(rng.weighted_index(initial.p[r]));
      rec.attacker = designated_attacker(rec.identity);
      fleet_.push_back(rec);
    }
  }
  place_fleet();
}

void ServiceEngine::init_from_source(const core::GameState& initial,
                                     std::vector<double> x0,
                                     core::FleetSource& source,
                                     std::size_t ingest_batch) {
  AVCP_EXPECT(ingest_batch >= 1);
  reset(initial, std::move(x0));

  const std::size_t num_segments = graph_->num_segments();
  const std::vector<cluster::RegionId>& region_of =
      clustering_->clustering().region_of;
  std::vector<core::VehicleSeed> batch(ingest_batch);
  for (;;) {
    const std::size_t got = source.next_batch(batch);
    for (std::size_t i = 0; i < got; ++i) {
      const core::VehicleSeed& seed = batch[i];
      AVCP_EXPECT(seed.decision < game_.num_decisions());
      VehicleRecord rec;
      rec.id = next_id_++;  // service ids stay monotone whatever the source
      rec.identity = rec.id;
      // Placement from a per-source-id hash stream: independent of how the
      // pull was batched, so any ingest_batch yields the same fleet.
      Rng rng(derive_seed(params_.seed, {kSourceSegmentStream, seed.id}));
      rec.segment = static_cast<roadnet::SegmentId>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_segments) - 1));
      rec.region = region_of[rec.segment];
      rec.decision = seed.decision;
      rec.attacker = designated_attacker(rec.identity);
      fleet_.push_back(rec);
    }
    if (got < batch.size()) break;
  }
  AVCP_EXPECT(fleet_.size() >= 2);
  place_fleet();
}

void ServiceEngine::apply_churn(std::size_t e, std::size_t& events) {
  if (!events_.active()) return;
  const std::size_t num_segments = graph_->num_segments();

  // Leaves first: a vehicle that leaves this epoch neither migrates nor
  // revises. erase_if keeps the id order intact.
  std::size_t left = 0;
  std::erase_if(fleet_, [&](const VehicleRecord& rec) {
    if (!events_.vehicle_leaves(e, rec.id)) return false;
    --pending_[rec.segment];
    ++left;
    return true;
  });

  std::size_t migrated = 0;
  for (VehicleRecord& rec : fleet_) {
    if (!events_.vehicle_migrates(e, rec.id)) continue;
    const roadnet::SegmentId target =
        events_.migrate_target(e, rec.id, num_segments);
    if (target == rec.segment) continue;
    --pending_[rec.segment];
    ++pending_[target];
    rec.segment = target;
    rec.region = clustering_->clustering().region_of[target];
    ++migrated;
  }

  const std::size_t joining = events_.joins(e);
  for (std::size_t slot = 0; slot < joining; ++slot) {
    VehicleRecord rec;
    rec.id = next_id_++;
    rec.identity = rec.id;
    rec.segment = events_.join_segment(e, slot, num_segments);
    rec.region = clustering_->clustering().region_of[rec.segment];
    // A joiner adopts a decision drawn from its region's latest truth —
    // it calibrates against the traffic it merges into.
    Rng rng(derive_seed(params_.seed, {kJoinDecisionStream, e, rec.id}));
    rec.decision =
        static_cast<core::DecisionId>(rng.weighted_index(state_.p[rec.region]));
    rec.attacker = designated_attacker(rec.identity);
    ++pending_[rec.segment];
    fleet_.push_back(rec);  // ids are monotone: order stays sorted
  }

  counters_.leaves += left;
  counters_.migrations += migrated;
  counters_.joins += joining;
  events = left + migrated + joining;
}

void ServiceEngine::maintain_clustering(std::size_t events) {
  bool pending_any = false;
  for (const std::int64_t p : pending_) {
    if (p != 0) {
      pending_any = true;
      break;
    }
  }
  if (!pending_any) {
    staleness_ = 0;
    return;
  }
  // Overload shedding: a heavy-churn epoch defers the (comparatively
  // expensive) centrality + clustering refresh, but the staleness budget
  // bounds how many epochs in a row may do so.
  if (events > params_.overload_events &&
      staleness_ < params_.staleness_budget) {
    ++staleness_;
    ++counters_.recluster_deferred;
    return;
  }
  deltas_.clear();
  for (roadnet::SegmentId s = 0; s < pending_.size(); ++s) {
    if (pending_[s] == 0) continue;
    deltas_.push_back({s, static_cast<std::int32_t>(pending_[s])});
    pending_[s] = 0;
  }
  const auto stats = clustering_->apply(deltas_);
  counters_.betweenness_chunks_recomputed += stats.chunks_recomputed;
  staleness_ = 0;
  if (stats.reclustered) {
    ++counters_.reclusters;
    reassign_regions();
  }
}

void ServiceEngine::reassign_regions() {
  const std::vector<cluster::RegionId>& region_of =
      clustering_->clustering().region_of;
  for (VehicleRecord& rec : fleet_) {
    rec.region = region_of[rec.segment];
  }
}

void ServiceEngine::rebuild_members() {
  for (std::vector<std::size_t>& m : members_) m.clear();
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    members_[fleet_[i].region].push_back(i);
  }
}

void ServiceEngine::snapshot_states() {
  const std::size_t K = game_.num_decisions();
  for (core::RegionId r = 0; r < game_.num_regions(); ++r) {
    const std::vector<std::size_t>& m = members_[r];
    // An emptied region holds its last known rows: the game still needs a
    // distribution for neighbour coupling, and "last known" is the least
    // surprising stand-in (exactly what the cloud would assume too).
    if (m.empty()) continue;
    std::vector<double>& truth = state_.p[r];
    truth.assign(K, 0.0);
    for (const std::size_t i : m) truth[fleet_[i].decision] += 1.0;
    for (double& v : truth) v /= static_cast<double>(m.size());

    std::size_t trusted = 0;
    claim_counts_.assign(K, 0.0);
    for (const std::size_t i : m) {
      const VehicleRecord& rec = fleet_[i];
      if (rec.quarantined) continue;  // the cloud discards their reports
      // Free-riders claim the share-everything top (decision 0) — the
      // claim that earns access to the whole pool.
      claim_counts_[rec.attacker ? 0 : rec.decision] += 1.0;
      ++trusted;
    }
    if (trusted == 0) continue;  // all quarantined: hold the last rows
    std::vector<double>& seen = observed_.p[r];
    seen.resize(K);
    for (std::size_t d = 0; d < K; ++d) {
      seen[d] = claim_counts_[d] / static_cast<double>(trusted);
    }
  }
}

void ServiceEngine::revise(std::size_t e) {
  // Churn drifts the fleets apart, so balance the dispatch by live
  // per-region cost (members × classes) instead of region count; the plan
  // depends only on fleet shapes, never on thread count.
  for (core::RegionId r = 0; r < game_.num_regions(); ++r) {
    cost_[r] = static_cast<double>(members_[r].size()) *
               static_cast<double>(game_.num_decisions());
  }
  pool_.parallel_for_weighted(cost_, [&](std::size_t ri) {
    const auto r = static_cast<core::RegionId>(ri);
    if (down_[ri] != 0) return;  // outage: the fleet holds, same as AgentSim
    const std::vector<std::size_t>& m = members_[ri];
    if (m.size() < 2) return;  // nobody to imitate
    game_.region_fitness_into(state_, x_, r, q_[ri]);
    const std::vector<double>& q = q_[ri];
    std::vector<core::DecisionId>& before = before_[ri];
    before.clear();
    for (const std::size_t i : m) before.push_back(fleet_[i].decision);
    Rng rng(derive_seed(params_.seed, {kStepStream, e, r}));
    // Free-riders hold strategically — and consume no draws, exactly like
    // AgentBasedSim's attacker/defector skip, so the honest fleet's stream
    // position is independent of who attacks.
    core::imitate(
        before, before, params_.revision_rate, params_.imitation_scale, rng,
        [&](std::size_t v) { return fleet_[m[v]].attacker; },
        [&](std::size_t v) { return q[before[v]]; },
        [&](std::size_t v, core::DecisionId d) { fleet_[m[v]].decision = d; });
  });
}

void ServiceEngine::score_reputation() {
  using Transition = byzantine::ReputationCell::Transition;
  const core::DecisionLattice& lattice = game_.lattice();
  const auto sensors = static_cast<double>(lattice.num_sensors());
  const core::DecisionId bottom =
      static_cast<core::DecisionId>(game_.num_decisions() - 1);
  const byzantine::ReputationParams& rp = params_.reputation;
  for (core::RegionId r = 0; r < game_.num_regions(); ++r) {
    if (down_[r] != 0) continue;  // no uploads observed, no evidence
    for (const std::size_t i : members_[r]) {
      VehicleRecord& rec = fleet_[i];
      // Upload-volume residual: the server knows how much data a claim
      // promises at ratio x_r and measures what actually arrived. Honest
      // vehicles upload exactly their claim (residual 0); free-riders
      // claim the top but upload the bottom.
      const core::DecisionId claim = rec.attacker ? 0 : rec.decision;
      const core::DecisionId behaved = rec.attacker ? bottom : rec.decision;
      const double expected =
          x_[r] * static_cast<double>(lattice.cardinality(claim)) / sensors;
      const double actual =
          x_[r] * static_cast<double>(lattice.cardinality(behaved)) / sensors;
      // The blind-start guard counts this vehicle's own scored epochs:
      // joiners arrive mid-run, so the service-wide epoch count would not do.
      ++rec.observed_epochs;
      const Transition t = rec.fold(std::max(expected - actual, 0.0), rp,
                                    rec.observed_epochs >= rp.min_rounds);
      if (t == Transition::kQuarantined) ++counters_.quarantines;
      if (t == Transition::kReleased) ++counters_.releases;
      rec.quarantined_streak = rec.quarantined ? rec.quarantined_streak + 1 : 0;
    }
  }
}

void ServiceEngine::apply_churn_exploit(std::size_t e) {
  if (!params_.churn_exploit) return;
  const std::size_t num_segments = graph_->num_segments();

  // A quarantined attacker that has sat out its patience window leaves and
  // immediately rejoins under a fresh id on a hash-derived segment. The
  // record is rebuilt in place (fleet_ stays id-sorted via erase+append in
  // old-id order), so the trajectory is identical at every thread count.
  exploiter_index_.clear();
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const VehicleRecord& rec = fleet_[i];
    if (rec.attacker && rec.quarantined &&
        rec.quarantined_streak >= params_.exploit_patience) {
      exploiter_index_.push_back(i);
    }
  }
  if (exploiter_index_.empty()) return;

  reborn_.clear();
  reborn_.reserve(exploiter_index_.size());
  for (const std::size_t i : exploiter_index_) {
    VehicleRecord rec = fleet_[i];
    --pending_[rec.segment];
    rec.id = next_id_++;  // fresh id, stable identity
    Rng rng(derive_seed(params_.seed, {kExploitStream, e, rec.identity}));
    rec.segment = static_cast<roadnet::SegmentId>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_segments) - 1));
    rec.region = clustering_->clustering().region_of[rec.segment];
    rec.attacker = designated_attacker(rec.identity);
    if (!params_.carry_suspicion) {
      // Per-id bookkeeping dies with the old id: the rejoin reopens the
      // blind-start window and the attack works.
      static_cast<byzantine::ReputationCell&>(rec) = {};
      rec.observed_epochs = 0;
      rec.quarantined_streak = 0;
    }
    ++pending_[rec.segment];
    reborn_.push_back(rec);
    ++counters_.exploit_rejoins;
    ++counters_.leaves;
    ++counters_.joins;
  }

  // Drop the old records, then append the reborn ones: their fresh ids are
  // monotone and larger than every surviving id, so fleet_ stays id-sorted.
  std::size_t next = 0, write = 0;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (next < exploiter_index_.size() && i == exploiter_index_[next]) {
      ++next;
      continue;
    }
    fleet_[write++] = std::move(fleet_[i]);
  }
  fleet_.resize(write);
  for (VehicleRecord& rec : reborn_) fleet_.push_back(std::move(rec));
}

void ServiceEngine::run_epoch() {
  const std::size_t e = epoch_;
  std::size_t events = 0;
  apply_churn(e, events);
  maintain_clustering(events);
  rebuild_members();

  for (core::RegionId r = 0; r < game_.num_regions(); ++r) {
    down_[r] = faults_->region_down(e, r) ? 1 : 0;
    counters_.outage_region_epochs += down_[r];
  }

  snapshot_states();
  if (!channel_) {
    // The controller sees claims, not truth; DegradedController substitutes
    // held reports for regions whose report never arrived this epoch.
    controller_->next_x_into(observed_, x_, x_next_);
  } else {
    // Backhaul step. The fault layer decides whether a report exists at
    // all (loss/outage = nothing enters the wire, exactly like the
    // synchronous path); the transport decides whether an existing report
    // survives the wire. With an undegraded wire every published report
    // lands in its own epoch, so fresh_ equals the fault layer's verdict
    // and the ingested rows are exact copies — bit-identical trajectories
    // under any FaultModel.
    const std::size_t m = game_.num_regions();
    for (core::RegionId r = 0; r < m; ++r) {
      if (!faults_->report_available(e, r)) continue;
      reports_.publish(r, e) = observed_.p[r];
      channel_->publish(static_cast<std::uint32_t>(r), e);
    }
    channel_->resolve_round(e);
    net_observed_.p.resize(m);
    fresh_.assign(m, 0);
    for (core::RegionId r = 0; r < m; ++r) {
      // A fault-layer loss is never papered over from the ring: both paths
      // treat the region as blind this epoch. Only wire losses fall back
      // to the newest delivered report within max_staleness.
      const std::uint64_t pe =
          faults_->report_available(e, r)
              ? channel_->consumable(static_cast<std::uint32_t>(r), e)
              : net::ExchangeChannel::kNothing;
      if (pe == net::ExchangeChannel::kNothing) {
        net_observed_.p[r] = observed_.p[r];  // ignored: region is blind
        continue;
      }
      net_observed_.p[r] = reports_.consume(r, pe);
      fresh_[r] = 1;
    }
    controller_->next_x_into(net_observed_, x_, x_next_, fresh_.data());
  }
  x_.swap(x_next_);
  revise(e);
  score_reputation();
  apply_churn_exploit(e);

  ++epoch_;
  ++counters_.epochs;
}

std::size_t ServiceEngine::quarantined_count() const {
  std::size_t n = 0;
  for (const VehicleRecord& rec : fleet_) n += rec.quarantined ? 1 : 0;
  return n;
}

void ServiceEngine::save_state(Serializer& s) const {
  // Configuration fingerprint: a snapshot from a differently-built service
  // must be rejected, not applied.
  s.put_u64(params_.seed);
  s.put_u64(game_.num_regions());
  s.put_u64(graph_->num_segments());
  s.put_bool(params_.churn_exploit);
  s.put_bool(params_.carry_suspicion);
  s.put_bool(channel_.has_value());

  s.put_u64(epoch_);
  s.put_u64(next_id_);
  s.put_u64(staleness_);

  s.put_u64(fleet_.size());
  for (const VehicleRecord& rec : fleet_) {
    s.put_u64(rec.id);
    s.put_u64(rec.identity);
    s.put_u32(rec.segment);
    s.put_u32(rec.region);
    s.put_u32(rec.decision);
    s.put_bool(rec.attacker);
    s.put_bool(rec.quarantined);
    s.put_f64(rec.smoothed);
    s.put_u64(rec.clean_streak);
    s.put_u64(rec.observed_epochs);
    s.put_u64(rec.quarantined_streak);
    s.put_bool(rec.ever_quarantined);
  }

  put_f64_vec(s, x_);
  state_.save_state(s);
  observed_.save_state(s);
  put_u8_vec(s, down_);

  std::vector<std::uint64_t> pend(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pend[i] = encode_i64(pending_[i]);
  }
  put_u64_vec(s, pend);
  std::vector<std::uint64_t> loads(clustering_->loads().size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = encode_i64(clustering_->loads()[i]);
  }
  put_u64_vec(s, loads);

  controller_->save_state(s);
  counters_.save_state(s);

  if (channel_) {
    // In-flight backhaul: the channel's metadata plus the payload rings,
    // so a resume mid-partition replays the exact same deliveries.
    channel_->save_state(s);
    reports_.save_state(s, [](Serializer& out, const std::vector<double>& row) {
      put_f64_vec(out, row);
    });
  }
}

void ServiceEngine::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == params_.seed,
                      "service snapshot: seed mismatch");
  Deserializer::check(d.get_u64() == game_.num_regions(),
                      "service snapshot: region count mismatch");
  Deserializer::check(d.get_u64() == graph_->num_segments(),
                      "service snapshot: segment count mismatch");
  Deserializer::check(d.get_bool() == params_.churn_exploit,
                      "service snapshot: churn_exploit mismatch");
  Deserializer::check(d.get_bool() == params_.carry_suspicion,
                      "service snapshot: carry_suspicion mismatch");
  Deserializer::check(d.get_bool() == channel_.has_value(),
                      "service snapshot: net transport wiring mismatch");

  epoch_ = d.get_u64();
  next_id_ = d.get_u64();
  staleness_ = d.get_u64();

  const std::uint64_t fleet_size = d.get_u64();
  std::vector<VehicleRecord> fleet;
  fleet.reserve(fleet_size);
  std::uint64_t prev_id = 0;
  for (std::uint64_t i = 0; i < fleet_size; ++i) {
    VehicleRecord rec;
    rec.id = d.get_u64();
    Deserializer::check(i == 0 || rec.id > prev_id,
                        "service snapshot: fleet ids out of order");
    Deserializer::check(rec.id < next_id_,
                        "service snapshot: vehicle id beyond id counter");
    prev_id = rec.id;
    rec.identity = d.get_u64();
    Deserializer::check(rec.identity <= rec.id,
                        "service snapshot: identity newer than id");
    rec.segment = d.get_u32();
    Deserializer::check(rec.segment < graph_->num_segments(),
                        "service snapshot: segment out of range");
    rec.region = d.get_u32();
    Deserializer::check(rec.region < game_.num_regions(),
                        "service snapshot: region out of range");
    rec.decision = d.get_u32();
    Deserializer::check(rec.decision < game_.num_decisions(),
                        "service snapshot: decision out of range");
    rec.attacker = d.get_bool();
    rec.quarantined = d.get_bool();
    rec.smoothed = d.get_f64();
    rec.clean_streak = d.get_u64();
    rec.observed_epochs = d.get_u64();
    rec.quarantined_streak = d.get_u64();
    rec.ever_quarantined = d.get_bool();
    fleet.push_back(rec);
  }

  std::vector<double> x = get_f64_vec(d);
  Deserializer::check(x.size() == game_.num_regions(),
                      "service snapshot: ratio size mismatch");
  core::GameState state;
  state.load_state(d);
  Deserializer::check(state.p.size() == game_.num_regions(),
                      "service snapshot: state shape mismatch");
  core::GameState observed;
  observed.load_state(d);
  Deserializer::check(observed.p.size() == game_.num_regions(),
                      "service snapshot: observed shape mismatch");
  std::vector<std::uint8_t> down = get_u8_vec(d);
  Deserializer::check(down.size() == game_.num_regions(),
                      "service snapshot: outage flags shape mismatch");

  std::vector<std::uint64_t> pend = get_u64_vec(d);
  Deserializer::check(pend.size() == graph_->num_segments(),
                      "service snapshot: pending deltas shape mismatch");
  std::vector<std::uint64_t> raw_loads = get_u64_vec(d);
  Deserializer::check(raw_loads.size() == graph_->num_segments(),
                      "service snapshot: loads shape mismatch");
  std::vector<std::int64_t> loads(raw_loads.size());
  for (std::size_t i = 0; i < raw_loads.size(); ++i) {
    loads[i] = decode_i64(raw_loads[i]);
    Deserializer::check(loads[i] >= 0,
                        "service snapshot: negative segment load");
  }
  // Rebuilding from loads is bit-equal to the pre-crash clustering by the
  // incremental-equivalence contract.
  clustering_->set_loads(loads);
  for (std::size_t i = 0; i < pend.size(); ++i) {
    pending_[i] = decode_i64(pend[i]);
  }

  controller_->load_state(d);
  counters_.load_state(d);

  if (channel_) {
    channel_->load_state(d);
    reports_.load_state(d, [&](Deserializer& in, std::vector<double>& row) {
      row = get_f64_vec(in);
      Deserializer::check(row.size() == game_.num_decisions(),
                          "service snapshot: report row shape mismatch");
    });
  }

  fleet_ = std::move(fleet);
  x_ = std::move(x);
  state_ = std::move(state);
  observed_ = std::move(observed);
  down_ = std::move(down);
}

}  // namespace avcp::service
