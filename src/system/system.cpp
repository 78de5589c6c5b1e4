#include "system/system.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/serial.h"
#include "core/imitation.h"

namespace avcp::system {

namespace {

perception::DataUniverse make_universe(const core::MultiRegionGame& game,
                                       std::size_t items_per_sensor,
                                       std::size_t vehicles_per_region,
                                       Rng& rng) {
  if (items_per_sensor == 0) items_per_sensor = vehicles_per_region;
  return perception::DataUniverse::synthetic(game.lattice().num_sensors(),
                                             items_per_sensor,
                                             game.sensor_privacy(), rng);
}

// Stream tags for derive_seed: one per randomized round stage, so the
// (round, region) streams of different stages never collide.
constexpr std::uint64_t kExchangeStream = 0xB1;
constexpr std::uint64_t kInterStream = 0xB2;
constexpr std::uint64_t kReviseStream = 0xB3;

}  // namespace

CooperativePerceptionSystem::CooperativePerceptionSystem(
    const core::MultiRegionGame& game, SystemParams params,
    const faults::FaultModel* faults, byzantine::ReportPipeline* pipeline,
    byzantine::Adversary* adversary)
    : game_(game),
      params_(params),
      faults_(faults != nullptr && faults->active() ? faults : nullptr),
      pipeline_(pipeline),
      adversary_(adversary != nullptr && adversary->active() ? adversary
                                                             : nullptr),
      rng_(params.seed),
      pool_(ThreadPool::clamped_lanes(params.num_threads)),
      universe_(make_universe(game, params.items_per_sensor,
                              params.vehicles_per_region, rng_)) {
  AVCP_EXPECT(params_.vehicles_per_region >= 2);
  AVCP_EXPECT(params_.cells_per_region >= 1);
  AVCP_EXPECT(params_.vehicles_per_region >= 2 * params_.cells_per_region);
  AVCP_EXPECT(params_.collect_fraction > 0.0 && params_.collect_fraction <= 1.0);
  AVCP_EXPECT(params_.desire_fraction > 0.0 && params_.desire_fraction <= 1.0);
  AVCP_EXPECT(params_.revision_rate >= 0.0 && params_.revision_rate <= 1.0);
  AVCP_EXPECT(params_.imitation_scale > 0.0);

  decisions_.assign(game.num_regions(),
                    std::vector<core::DecisionId>(params_.vehicles_per_region, 0));
  planes_.reserve(game.num_regions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    planes_.emplace_back(game.lattice(), universe_, game.config().access,
                         rng_());
  }
  x_.assign(game.num_regions(), 0.5);
  realized_.assign(game.num_regions(),
                   std::vector<double>(game.num_decisions(), 0.0));
  region_ws_.resize(game.num_regions());
  for (RegionWorkspace& ws : region_ws_) ws.picked.resize(universe_.size());
  claims_ = decisions_;
  behavior_ = decisions_;
  // Fleet shapes are fixed at construction, so the cost-balanced chunk plan
  // (vehicles × classes per region) is computed once. The plan depends only
  // on fleet shapes, never on thread count.
  region_cost_.resize(game.num_regions());
  for (core::RegionId i = 0; i < game.num_regions(); ++i) {
    region_cost_[i] = static_cast<double>(decisions_[i].size()) *
                      static_cast<double>(game.num_decisions());
  }
  chunk_plan_ = balanced_chunks(region_cost_, 4 * pool_.size());

  // Degraded-network transport: one directed link per neighbour edge,
  // added dst-major in neighbour order so a receiver's canonical consume
  // order is exactly the synchronous path's neighbour order.
  if (params_.inter_region_exchange && params_.net.active()) {
    link_model_.emplace(params_.net);
    channel_.emplace(*link_model_,
                     static_cast<std::uint32_t>(game.num_regions()));
    out_links_.resize(game.num_regions());
    for (core::RegionId i = 0; i < game.num_regions(); ++i) {
      for (const auto& [j, gamma] : game.region(i).neighbors) {
        const std::uint32_t link = channel_->add_link(j, i);
        AVCP_ENSURE(link == link_gamma_.size());
        link_gamma_.push_back(gamma);
        out_links_[j].push_back(link);
      }
    }
    scenes_ = net::PayloadRing<Scene>(game.num_regions(),
                                      params_.net.ring_slots());
  }
}

core::GameState CooperativePerceptionSystem::empirical_state() const {
  core::GameState state;
  state.p.assign(game_.num_regions(),
                 std::vector<double>(game_.num_decisions(), 0.0));
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    for (const core::DecisionId d : decisions_[i]) {
      state.p[i][d] += 1.0;
    }
    for (double& v : state.p[i]) {
      v /= static_cast<double>(decisions_[i].size());
    }
  }
  return state;
}

core::GameState CooperativePerceptionSystem::honest_state() const {
  if (adversary_ == nullptr) return empirical_state();
  core::GameState state;
  state.p.assign(game_.num_regions(),
                 std::vector<double>(game_.num_decisions(), 0.0));
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    double honest = 0.0;
    for (std::size_t v = 0; v < decisions_[i].size(); ++v) {
      if (adversary_->ever_attacks(i, v)) continue;
      state.p[i][decisions_[i][v]] += 1.0;
      honest += 1.0;
    }
    if (honest == 0.0) {
      for (const core::DecisionId d : decisions_[i]) state.p[i][d] += 1.0;
      honest = static_cast<double>(decisions_[i].size());
    }
    for (double& value : state.p[i]) value /= honest;
  }
  return state;
}

void CooperativePerceptionSystem::init_from(const core::GameState& state) {
  AVCP_EXPECT(state.p.size() == game_.num_regions());
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    core::check_distribution(state.p[i]);
    for (auto& decision : decisions_[i]) {
      decision = static_cast<core::DecisionId>(rng_.weighted_index(state.p[i]));
    }
  }
}

RoundReport CooperativePerceptionSystem::run_round(
    core::Controller& controller) {
  const std::size_t num_regions = game_.num_regions();
  const bool byz = adversary_ != nullptr || pipeline_ != nullptr;
  RoundReport report;
  report.byzantine.active = byz;

  // Freeze the adversary's per-round plan before any parallel stage:
  // attacking() is then a const lookup for the whole round.
  if (adversary_ != nullptr) adversary_->begin_round(round_);

  // --- S1: edge servers report, the cloud computes the ratios. -----------
  // claims_[i][v]: the decision vehicle v *declares* this round (falsified
  // for attacking vehicles) — it governs lattice access and what peers see.
  // behavior_[i][v]: the decision it *executes* in the data plane. Both
  // mirror decisions_ on the clean path, and nothing here consumes RNG.
  // Members (not locals): the round loop reuses their capacity.
  for (core::RegionId i = 0; i < num_regions; ++i) {
    claims_[i].assign(decisions_[i].begin(), decisions_[i].end());
    behavior_[i].assign(decisions_[i].begin(), decisions_[i].end());
  }
  std::vector<std::vector<byzantine::VehicleReport>> reports;
  if (byz) {
    reports.resize(num_regions);
    for (core::RegionId i = 0; i < num_regions; ++i) {
      // Honest telemetry is exact: the region's true beta / gamma_self and
      // the fleet headcount as density. Liars therefore stand out against
      // a collapsed (MAD ~ 0) honest spread.
      const double beta = game_.region(i).beta;
      const double gamma = game_.region(i).gamma_self;
      const double density = static_cast<double>(decisions_[i].size());
      reports[i].resize(decisions_[i].size());
      for (std::size_t v = 0; v < decisions_[i].size(); ++v) {
        byzantine::VehicleReport r{decisions_[i][v], beta, gamma, density};
        if (adversary_ != nullptr) {
          behavior_[i][v] = adversary_->behavior_decision(
              round_, i, v, decisions_[i][v], game_.lattice());
          r = adversary_->falsify(round_, i, v, r);
        }
        claims_[i][v] = r.decision;
        reports[i][v] = r;
      }
    }
  }

  core::GameState observed;
  if (pipeline_ != nullptr) {
    observed.p.resize(num_regions);
    report.byzantine.beta.resize(num_regions, 0.0);
    report.byzantine.gamma.resize(num_regions, 0.0);
    report.byzantine.density.resize(num_regions, 0.0);
    report.byzantine.reports_used.resize(num_regions, 0);
    report.byzantine.outliers_rejected.resize(num_regions, 0);
    report.byzantine.quarantined.resize(num_regions, 0);
    // Robust aggregation is region-local (the pipeline's contract), so the
    // regions fan out; results land in per-region slots and are folded on
    // this thread in region order.
    std::vector<byzantine::RegionObservation> observations(num_regions);
    pool_.parallel_for(0, num_regions, [&](std::size_t i) {
      observations[i] = pipeline_->aggregate(
          round_, static_cast<core::RegionId>(i), reports[i]);
    });
    for (core::RegionId i = 0; i < num_regions; ++i) {
      byzantine::RegionObservation& obs = observations[i];
      observed.p[i] = std::move(obs.p);
      report.byzantine.beta[i] = obs.beta;
      report.byzantine.gamma[i] = obs.gamma;
      report.byzantine.density[i] = obs.density;
      report.byzantine.reports_used[i] = obs.reports_used;
      report.byzantine.outliers_rejected[i] = obs.outliers_rejected;
      report.byzantine.quarantined[i] = obs.quarantined;
    }
  } else if (byz) {
    // Adversary without a pipeline: a trusting cloud folds the claims with
    // a plain mean (the vulnerable baseline).
    observed.p.assign(num_regions,
                      std::vector<double>(game_.num_decisions(), 0.0));
    for (core::RegionId i = 0; i < num_regions; ++i) {
      for (const core::DecisionId d : claims_[i]) observed.p[i][d] += 1.0;
      for (double& value : observed.p[i]) {
        value /= static_cast<double>(claims_[i].size());
      }
    }
  } else {
    observed = empirical_state();
  }
  if (byz) report.byzantine.observed = observed;
  x_ = controller.next_x(observed, x_);
  AVCP_ENSURE(x_.size() == game_.num_regions());

  const bool transport = channel_.has_value();
  report.net.active = transport;
  if (transport) {
    report.net.stale_by_region.assign(num_regions, 0);
    report.net.blind_by_region.assign(num_regions, 0);
  }

  report.x = x_;
  report.mean_utility.resize(game_.num_regions(), 0.0);
  report.mean_privacy.resize(game_.num_regions(), 0.0);
  report.exposed_privacy.resize(game_.num_regions(), 0.0);
  report.faults.uploads_lost_by_region.assign(game_.num_regions(), 0);
  report.faults.deliveries_lost_by_region.assign(game_.num_regions(), 0);
  report.faults.region_down.assign(game_.num_regions(), 0);
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    if (faults_ != nullptr && faults_->region_down(round_, i)) {
      report.faults.region_down[i] = 1;
      ++report.faults.regions_down;
      ++fault_counters_.region_outages;
    }
  }

  // --- S2: per edge server, run the data plane and measure fitness. ------
  // Each region is one task: it owns its plane (distinct RNG stream), its
  // hash-derived (round, region) sampling stream, and its slots of the
  // report — the only cross-region values, the fleet-wide loss totals, are
  // reduced after the join in region order.
  const std::size_t exchanges = std::max<std::size_t>(1, params_.exchanges_per_round);
  auto data_plane_stage = [&](std::size_t region_index) {
    const auto i = static_cast<core::RegionId>(region_index);
    Rng rng(derive_seed(params_.seed, {kExchangeStream, round_, region_index}));
    RegionWorkspace& ws = region_ws_[i];
    const std::size_t n = decisions_[i].size();

    // Realized fitness: beta-weighted measured utility minus measured
    // privacy cost, averaged over the round's repeated exchanges (§II: the
    // upload/distribute steps repeat several times before the next policy).
    // The realized privacy cost is the fraction of the vehicle's *own*
    // private-data mass it exposed — the scale-free analogue of Table II's
    // g_k (its expectation over random collections equals the normalised
    // g_k exactly), bounded in [0, 1] regardless of universe sparsity.
    const double beta = game_.region(i).beta;

    ws.fitness.assign(n, 0.0);
    // Privacy mass each vehicle actually uploaded this round (summed over
    // cells and exchanges) — the behavioural signal the pipeline audits.
    ws.upload_mass.assign(n, 0.0);
    // The round's roster: decisions/claims/revocations are fixed across
    // the round's exchanges; only the item scene is refilled per exchange.
    ws.fleet.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (byz) {
        ws.fleet.add(behavior_[i][v], claims_[i][v],
                     pipeline_ != nullptr && pipeline_->excluded(i, v));
      } else {
        ws.fleet.add(behavior_[i][v]);
      }
    }
    // Scene synthesis: one Bernoulli per universe item, ascending, then one
    // uniform fallback when nothing got drawn (the draw-order contract).
    // The loop is branch-free: every id is written at the cursor, and a
    // success moves the cursor past it, so the kept ids are an ascending
    // prefix of ws.picked, copied into the arena in one window.
    const BernoulliSampler desire(params_.desire_fraction);
    const BernoulliSampler collect(params_.collect_fraction);
    const std::size_t omega = universe_.size();
    auto sample_set = [&](const BernoulliSampler& keep) -> std::uint32_t {
      perception::ItemId* out = ws.picked.data();
      std::uint32_t count = 0;
      for (perception::ItemId id = 0; id < omega; ++id) {
        out[count] = id;
        count += static_cast<std::uint32_t>(keep(rng));
      }
      if (count == 0) {
        out[count++] = static_cast<perception::ItemId>(
            rng.uniform_int(0, static_cast<std::int64_t>(omega) - 1));
      }
      return count;
    };
    const std::size_t cells = params_.cells_per_region;
    for (std::size_t e = 0; e < exchanges; ++e) {
      ws.fleet.reset_items();
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint32_t count = sample_set(desire);
        std::copy_n(ws.picked.data(), count,
                    ws.fleet.alloc_desired(v, count).begin());
      }
      if (params_.disjoint_collections) {
        // Deal each item to at most one vehicle (pairwise-disjoint
        // collections, the paper's Property 3.1(d) regime). With
        // n * collect_fraction >= 1 every item is observed by someone,
        // which is the realistic street scene. Record-then-scatter: the
        // draws run in ascending item order (the draw-order contract);
        // grouping each owner's items afterwards keeps them ascending.
        const BernoulliSampler covered(std::min(
            1.0, params_.collect_fraction * static_cast<double>(n)));
        ws.deal_item.clear();
        ws.deal_owner.clear();
        ws.owner_count.assign(n, 0);
        for (perception::ItemId id = 0; id < omega; ++id) {
          if (!covered(rng)) continue;
          const auto owner = static_cast<std::uint32_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(n) - 1));
          ws.deal_item.push_back(id);
          ws.deal_owner.push_back(owner);
          ++ws.owner_count[owner];
        }
        ws.owner_fill.assign(n, 0);
        std::uint32_t start = 0;
        for (std::size_t v = 0; v < n; ++v) {
          ws.owner_fill[v] = start;
          start += ws.owner_count[v];
        }
        ws.deal_sorted.resize(ws.deal_item.size());
        for (std::size_t j = 0; j < ws.deal_item.size(); ++j) {
          ws.deal_sorted[ws.owner_fill[ws.deal_owner[j]]++] = ws.deal_item[j];
        }
        start = 0;
        for (std::size_t v = 0; v < n; ++v) {
          std::span<perception::ItemId> c =
              ws.fleet.alloc_collected(v, ws.owner_count[v]);
          std::copy_n(ws.deal_sorted.begin() + start, ws.owner_count[v],
                      c.begin());
          start += ws.owner_count[v];
        }
      } else {
        for (std::size_t v = 0; v < n; ++v) {
          const std::uint32_t count = sample_set(collect);
          std::copy_n(ws.picked.data(), count,
                      ws.fleet.alloc_collected(v, count).begin());
        }
      }
      const perception::FleetView fleet_view = ws.fleet.view();
      // Edge-server outage (fault injection): the region's servers are
      // down, so no data exchange happens this round. Vehicles fall back
      // on their own perception — utility is measured on the collection
      // alone, nothing is uploaded (no privacy cost, no exposure).
      if (report.faults.region_down[i] != 0) {
        double util_sum = 0.0;
        for (std::size_t v = 0; v < n; ++v) {
          double own = 0.0;
          const std::span<const perception::ItemId> desired =
              fleet_view.desired_of(v);
          if (!desired.empty()) {
            own = perception::measured_utility(universe_,
                                               fleet_view.collected_of(v),
                                               desired);
          }
          util_sum += own;
          ws.fitness[v] += beta * own;
        }
        report.mean_utility[i] += util_sum / static_cast<double>(n);
        continue;
      }
      // Data exchange is scoped per Voronoi cell (Fig. 5): vehicles are
      // spread round-robin over this round's cells. A single cell runs on
      // the region fleet's view directly; with more cells each sub-fleet is
      // repacked into the persistent per-cell SoA.
      double util_sum = 0.0;
      double priv_sum = 0.0;
      double exposed_sum = 0.0;
      for (std::size_t c = 0; c < cells; ++c) {
        const bool whole = cells == 1;
        std::size_t cn = n;
        if (!whole) {
          ws.cell.clear();
          ws.cell_index.clear();
          for (std::size_t v = c; v < n; v += cells) {
            ws.cell.add(fleet_view, v);
            ws.cell_index.push_back(v);
          }
          cn = ws.cell.size();
          if (cn == 0) continue;
        }
        const perception::FleetView cell_view =
            whole ? fleet_view : ws.cell.view();
        // Resolve this cell's V2X link faults (pure hashes; the system RNG
        // stream is untouched, keeping the zero-fault path bit-identical).
        ws.mask.upload_lost.clear();
        ws.mask.delivery_lost.clear();
        if (faults_ != nullptr) {
          if (faults_->params().upload_loss_rate > 0.0) {
            ws.mask.upload_lost.resize(cn);
            for (std::size_t j = 0; j < cn; ++j) {
              const std::size_t v = whole ? j : ws.cell_index[j];
              ws.mask.upload_lost[j] =
                  faults_->upload_lost(round_, i, e, v) ? 1 : 0;
            }
          }
          if (faults_->params().delivery_loss_rate > 0.0) {
            ws.mask.delivery_lost.resize(cn * cn);
            for (std::size_t a = 0; a < cn; ++a) {
              const std::size_t va = whole ? a : ws.cell_index[a];
              for (std::size_t b = 0; b < cn; ++b) {
                const std::size_t vb = whole ? b : ws.cell_index[b];
                ws.mask.delivery_lost[a * cn + b] =
                    faults_->delivery_lost(round_, i, e, va, vb) ? 1 : 0;
              }
            }
          }
        }
        // Per-pair delivery-loss masks cannot be class-aggregated; such
        // cells fall back to the exact kernel for the round.
        const auto mode = ws.mask.delivery_lost.empty()
                              ? params_.data_plane_mode
                              : perception::DataPlaneMode::kPairwiseExact;
        planes_[i].run_round_into(cell_view, x_[i], ws.mask, no_server_items_,
                                  mode, ws.outcome);
        report.faults.uploads_lost_by_region[i] += ws.outcome.uploads_lost;
        report.faults.deliveries_lost_by_region[i] +=
            ws.outcome.deliveries_lost;
        exposed_sum += ws.outcome.exposed_privacy;
        for (std::size_t j = 0; j < cn; ++j) {
          const std::size_t v = whole ? j : ws.cell_index[j];
          util_sum += ws.outcome.utility[j];
          priv_sum += ws.outcome.privacy[j];
          ws.upload_mass[v] += ws.outcome.privacy[j];
          ws.fitness[v] += universe_.realized_fitness(
              beta, ws.outcome.utility[j], ws.outcome.privacy[j],
              fleet_view.collected_of(v));
        }
      }
      report.mean_utility[i] += util_sum / static_cast<double>(n);
      report.mean_privacy[i] += priv_sum / static_cast<double>(n);
      report.exposed_privacy[i] += exposed_sum;
    }
    const double inv = 1.0 / static_cast<double>(exchanges);
    report.mean_utility[i] *= inv;
    report.mean_privacy[i] *= inv;
    report.exposed_privacy[i] *= inv;
    for (double& f : ws.fitness) f *= inv;
    // Behavioural audit: the pipeline compares each vehicle's realized
    // upload mass against its same-claim cohort. An outage round carries no
    // uploads for anyone, so there is nothing to audit.
    if (pipeline_ != nullptr && report.faults.region_down[i] == 0) {
      pipeline_->observe_uploads(i, ws.upload_mass);
    }
  };

  // --- Inter-region exchange (Fig. 5, Eq. (4)'s x_j * gamma_ji term) fused
  // with decision revision into one per-region task: vehicles of a
  // neighbouring region act as senders at the sender region's ratio; gamma
  // scales how many of them this region's vehicles meet. Receiver regions
  // are independent once every region's last_vehicles is frozen (the stage
  // barrier): task i reads neighbours' sender fleets, samples from its own
  // per-stream (round, region) streams, and writes only round_fitness[i],
  // decisions_[i], and realized_[i] — revision for region i reads nothing
  // another region's task writes, so the two phases fuse without a barrier
  // between them.
  auto exchange_revise_stage = [&](std::size_t region_index) {
    const auto i = static_cast<core::RegionId>(region_index);
    RegionWorkspace& ws = region_ws_[i];
    // A region whose edge servers are down this round neither relays
    // cross-region data to its fleet nor serves as a sender side — but its
    // fleet still revises on the own-perception fallback fitness.
    if (params_.inter_region_exchange && report.faults.region_down[i] == 0) {
      Rng rng(derive_seed(params_.seed, {kInterStream, round_, region_index}));
      const double beta = game_.region(i).beta;
      // ws.fleet still holds the last exchange's scene — frozen by the
      // stage barrier, so reading a neighbour's fleet is safe.
      const perception::FleetView recv_view = ws.fleet.view();
      auto run_senders = [&](const perception::FleetView& sender_view,
                             double x_sender, double gamma) {
        const std::size_t sn = sender_view.size();
        const auto k = static_cast<std::size_t>(std::min<double>(
            static_cast<double>(sn),
            std::round(gamma * static_cast<double>(sn))));
        if (k == 0) return;
        ws.senders.clear();
        for (std::size_t n = 0; n < k; ++n) {
          ws.senders.add(sender_view,
                         static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(sn) - 1)));
        }
        planes_[i].run_directional_into(ws.senders.view(), recv_view,
                                        x_sender, params_.data_plane_mode,
                                        ws.dout);
        for (std::size_t v = 0; v < recv_view.size(); ++v) {
          ws.fitness[v] += beta * ws.dout.marginal_utility[v];
        }
      };
      if (!transport) {
        for (const auto& [j, gamma] : game_.region(i).neighbors) {
          if (report.faults.region_down[j] != 0) continue;
          run_senders(region_ws_[j].fleet.view(), x_[j], gamma);
        }
      } else {
        // Transport path: consume from the payload rings in this round's
        // consume order. Region outages keep their fault-layer semantics
        // (a down sender is skipped, not substituted); link-level misses
        // fall back to the newest held payload within max_staleness, then
        // to local-only revision (blind link). With zero degradation every
        // link delivers its own-round payload in canonical order, so the
        // draws below replay the synchronous path bit for bit.
        for (const std::uint32_t link : channel_->consume_order(i)) {
          const core::RegionId j = channel_->link_src(link);
          if (report.faults.region_down[j] != 0) continue;
          const std::uint64_t p = channel_->consumable(link, round_);
          if (p == net::ExchangeChannel::kNothing) {
            ++report.net.blind_by_region[i];
            continue;
          }
          const Scene& scene = scenes_.consume(j, p);
          if (p != round_) ++report.net.stale_by_region[i];
          run_senders(scene.fleet.view(), scene.x, link_gamma_[link]);
        }
      }
    }

    // --- Decision revision by realized fitness. ---------------------------
    Rng rng(derive_seed(params_.seed, {kReviseStream, round_, region_index}));
    auto& fleet = decisions_[i];
    const auto& fitness = ws.fitness;

    auto& per_decision = realized_[i];
    std::fill(per_decision.begin(), per_decision.end(), 0.0);
    ws.counts.assign(game_.num_decisions(), 0.0);
    for (std::size_t v = 0; v < fleet.size(); ++v) {
      per_decision[behavior_[i][v]] += fitness[v];
      ws.counts[behavior_[i][v]] += 1.0;
    }
    for (core::DecisionId d = 0; d < game_.num_decisions(); ++d) {
      if (ws.counts[d] > 0.0) per_decision[d] /= ws.counts[d];
    }

    // Revision is driven by what peers *display*: an honest vehicle that
    // imitates an attacker copies the attacker's claimed decision (it
    // cannot see the free-riding underneath). A vehicle attacking this
    // round never revises — its decision is strategy, not
    // fitness-following — but a designated vehicle outside its strategy's
    // scope (a colluder in a non-target region, a flip-flopper in an
    // honest half-cycle) behaves honestly, revision included.
    ws.before.assign(fleet.begin(), fleet.end());
    core::imitate(
        ws.before, claims_[i], params_.revision_rate, params_.imitation_scale,
        rng,
        [&](std::size_t v) {
          return adversary_ != nullptr && adversary_->attacking(round_, i, v);
        },
        [&](std::size_t v) { return fitness[v]; },
        [&](std::size_t v, core::DecisionId d) { fleet[v] = d; });
  };

  if (!transport) {
    // Both stages cross the pool boundary in ONE dispatch (single worker
    // wake; the inter-stage barrier is the claim word flipping over), with
    // chunks balanced by measured per-region cost — vehicles × classes —
    // rather than region count, so one heavy region does not serialise the
    // round (chunk_plan_ is fixed at construction with the fleet shapes).
    const ThreadPool::Stage round_stages[] = {
        {game_.num_regions(), IndexFnRef(data_plane_stage), 0, chunk_plan_},
        {game_.num_regions(), IndexFnRef(exchange_revise_stage), 0,
         chunk_plan_},
    };
    pool_.run_batch(round_stages);
  } else {
    // Transport-active rounds split the dispatch around a serial transport
    // step: publish every live region's scene into its payload ring, then
    // let the channel fate this round's messages. Running it on the
    // control thread (never a lane) keeps delivery order — and therefore
    // the trajectory — independent of thread count by construction.
    const ThreadPool::Stage stage_a[] = {
        {game_.num_regions(), IndexFnRef(data_plane_stage), 0, chunk_plan_},
    };
    pool_.run_batch(stage_a);
    const net::ExchangeChannel::Counters before = channel_->counters();
    for (core::RegionId j = 0; j < num_regions; ++j) {
      if (report.faults.region_down[j] != 0) continue;
      Scene& scene = scenes_.publish(j, round_);
      scene.x = x_[j];
      scene.fleet = region_ws_[j].fleet;  // capacity reused after warm-up
      for (const std::uint32_t link : out_links_[j]) {
        channel_->publish(link, round_);
      }
    }
    channel_->resolve_round(round_);
    const net::ExchangeChannel::Counters& after = channel_->counters();
    report.net.sent = after.sent - before.sent;
    report.net.delivered = after.delivered - before.delivered;
    report.net.deduped = after.deduped - before.deduped;
    report.net.dropped = after.dropped - before.dropped;
    report.net.severed = after.severed - before.severed;
    report.net.delayed = after.delayed - before.delayed;
    report.net.duplicates = after.duplicates - before.duplicates;
    report.net.retries = after.retries - before.retries;
    report.net.expired = after.expired - before.expired;
    const ThreadPool::Stage stage_b[] = {
        {game_.num_regions(), IndexFnRef(exchange_revise_stage), 0,
         chunk_plan_},
    };
    pool_.run_batch(stage_b);
    for (core::RegionId i = 0; i < num_regions; ++i) {
      report.net.stale_links += report.net.stale_by_region[i];
      report.net.blind_links += report.net.blind_by_region[i];
    }
  }

  // Fleet-wide loss totals: reduced in region order after the join.
  for (core::RegionId i = 0; i < game_.num_regions(); ++i) {
    report.faults.uploads_lost += report.faults.uploads_lost_by_region[i];
    report.faults.deliveries_lost +=
        report.faults.deliveries_lost_by_region[i];
  }

  fault_counters_.uploads_lost += report.faults.uploads_lost;
  fault_counters_.deliveries_lost += report.faults.deliveries_lost;
  if (pipeline_ != nullptr) {
    pipeline_->end_round(round_);
    report.byzantine.total_quarantined =
        pipeline_->reputation().total_quarantined();
    report.byzantine.total_distrusted = pipeline_->trust().total_distrusted();
  }
  // Adversary feedback: AFTER the defender's end_round, publish to each
  // designated attacker exactly what a vehicle could see — its own EWMA
  // score, whether it is excluded, and how many region mates are caught —
  // then advance the policies. Serial, in (region, vehicle) order: the
  // observation order is part of the determinism contract. Without a
  // pipeline (the trusting baseline) nothing is published and the machines
  // run open-loop on their own schedules.
  if (adversary_ != nullptr) {
    if (pipeline_ != nullptr) {
      for (core::RegionId i = 0; i < num_regions; ++i) {
        const std::size_t caught = pipeline_->reputation().quarantined_in(i) +
                                   pipeline_->trust().distrusted_in(i);
        for (std::size_t v = 0; v < decisions_[i].size(); ++v) {
          if (!adversary_->is_attacker(i, v)) continue;
          byzantine::AdversaryObservation obs;
          obs.own_score = pipeline_->reputation().score(i, v);
          obs.excluded = pipeline_->excluded(i, v);
          obs.region_quarantined = caught;
          adversary_->observe(i, v, obs);
        }
      }
    }
    adversary_->end_round(round_);
    report.byzantine.adaptive_dormant = adversary_->total_dormant();
  }
  ++round_;

  report.state = empirical_state();
  return report;
}

std::size_t CooperativePerceptionSystem::run_until(
    core::Controller& controller, const core::DesiredFields& desired,
    double tol, std::size_t max_rounds) {
  for (std::size_t t = 0; t < max_rounds; ++t) {
    run_round(controller);
    if (desired.satisfied(empirical_state(), tol)) return t + 1;
  }
  return max_rounds;
}

std::span<const double> CooperativePerceptionSystem::realized_fitness(
    core::RegionId i) const {
  AVCP_EXPECT(i < realized_.size());
  return realized_[i];
}

void CooperativePerceptionSystem::save_state(Serializer& s) const {
  // Configuration fingerprint first, so a snapshot cannot silently restore
  // into a differently-shaped system (load_state rejects on mismatch).
  s.put_u64(game_.num_regions());
  s.put_u64(game_.num_decisions());
  s.put_u64(params_.vehicles_per_region);
  s.put_u64(params_.seed);
  s.put_u8(static_cast<std::uint8_t>(params_.data_plane_mode));
  s.put_bool(pipeline_ != nullptr);
  s.put_bool(adversary_ != nullptr);
  s.put_bool(channel_.has_value());

  s.put_u64(round_);
  fault_counters_.save_state(s);
  rng_.save_state(s);
  for (const std::vector<core::DecisionId>& region : decisions_) {
    put_u32_vec(s, region);
  }
  put_f64_vec(s, x_);
  for (const std::vector<double>& region : realized_) {
    put_f64_vec(s, region);
  }
  for (const perception::EdgeServerDataPlane& plane : planes_) {
    plane.stream().save_state(s);
  }
  if (pipeline_ != nullptr) pipeline_->save_state(s);
  if (adversary_ != nullptr) adversary_->save_state(s);
  // Transport section: the channel (in-flight messages, per-link freshness,
  // counters, behind a NetParams fingerprint) plus every sender's payload
  // ring — so a resume mid-partition replays delayed and retransmitted
  // deliveries byte-equal (empty ring slots carry only their sentinel).
  if (channel_.has_value()) {
    channel_->save_state(s);
    scenes_.save_state(s, [](Serializer& out, const Scene& scene) {
      out.put_f64(scene.x);
      scene.fleet.save_state(out);
    });
  }
}

void CooperativePerceptionSystem::load_state(Deserializer& d) {
  Deserializer::check(d.get_u64() == game_.num_regions(),
                      "System snapshot: region count mismatch");
  Deserializer::check(d.get_u64() == game_.num_decisions(),
                      "System snapshot: decision count mismatch");
  Deserializer::check(d.get_u64() == params_.vehicles_per_region,
                      "System snapshot: fleet size mismatch");
  Deserializer::check(d.get_u64() == params_.seed,
                      "System snapshot: seed mismatch");
  Deserializer::check(
      d.get_u8() == static_cast<std::uint8_t>(params_.data_plane_mode),
      "System snapshot: data-plane mode mismatch");
  Deserializer::check(d.get_bool() == (pipeline_ != nullptr),
                      "System snapshot: report-pipeline wiring mismatch");
  Deserializer::check(d.get_bool() == (adversary_ != nullptr),
                      "System snapshot: adversary wiring mismatch");
  Deserializer::check(d.get_bool() == channel_.has_value(),
                      "System snapshot: net transport wiring mismatch");

  // Everything is parsed into locals (the pipeline and the channel into
  // copies, the scene rings into a fresh ring), and nothing is committed
  // until the last read has succeeded, so a rejected snapshot leaves the
  // system as it was. The adversary is abstract and cannot be copied: it
  // loads in place, and a later failure restores it from its own bytes.
  const std::uint64_t round = d.get_u64();
  faults::FaultCounters fault_counters;
  fault_counters.load_state(d);
  Rng rng;
  rng.load_state(d);
  std::vector<std::vector<core::DecisionId>> decisions(decisions_.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    decisions[i] = get_u32_vec(d);
    Deserializer::check(decisions[i].size() == decisions_[i].size(),
                        "System snapshot: decisions row size mismatch");
    for (const core::DecisionId decision : decisions[i]) {
      Deserializer::check(decision < game_.num_decisions(),
                          "System snapshot: decision id out of range");
    }
  }
  std::vector<double> ratios = get_f64_vec(d);
  Deserializer::check(ratios.size() == x_.size(),
                      "System snapshot: ratio vector size mismatch");
  std::vector<std::vector<double>> realized(realized_.size());
  for (std::size_t i = 0; i < realized.size(); ++i) {
    realized[i] = get_f64_vec(d);
    Deserializer::check(realized[i].size() == realized_[i].size(),
                        "System snapshot: realized row size mismatch");
  }
  std::vector<Rng> streams(planes_.size());
  for (Rng& stream : streams) stream.load_state(d);
  std::optional<byzantine::ReportPipeline> pipeline;
  if (pipeline_ != nullptr) {
    pipeline.emplace(*pipeline_);
    pipeline->load_state(d);
  }
  Serializer adversary_backup;
  if (adversary_ != nullptr) adversary_->save_state(adversary_backup);
  std::optional<net::ExchangeChannel> channel = channel_;
  net::PayloadRing<Scene> scenes;
  try {
    if (adversary_ != nullptr) adversary_->load_state(d);
    if (channel) {
      channel->load_state(d);
      scenes = net::PayloadRing<Scene>(game_.num_regions(),
                                       params_.net.ring_slots());
      scenes.load_state(d, [&](Deserializer& in, Scene& scene) {
        scene.x = in.get_f64();
        scene.fleet.load_state(in);
        Deserializer::check(
            scene.fleet.size() == params_.vehicles_per_region,
            "System snapshot: payload fleet size mismatch");
      });
    }
  } catch (...) {
    if (adversary_ != nullptr) {
      Deserializer backup(adversary_backup.bytes());
      adversary_->load_state(backup);
    }
    throw;
  }

  round_ = static_cast<std::size_t>(round);
  fault_counters_ = fault_counters;
  rng_ = rng;
  decisions_ = std::move(decisions);
  x_ = std::move(ratios);
  realized_ = std::move(realized);
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    planes_[i].set_stream(streams[i]);
  }
  if (pipeline) *pipeline_ = std::move(*pipeline);
  if (channel) {
    channel_.emplace(std::move(*channel));
    scenes_ = std::move(scenes);
  }
}

}  // namespace avcp::system
