// Degraded-network chaos explorer (DESIGN.md §17): FoundationDB-style
// deterministic simulation testing of the inter-region transport.
//
// The sweep crosses drop-rate x delay profile x partition pattern on the
// measured plant, every cell against a clean twin (same seeds, no
// degradation). Because every message fate is a pure hash of the cell's
// seed, any violation replays exactly from the printed seed + schedule —
// no shrinking, no flaky repro. Three invariants are asserted per run:
//
//   1. Zero-degradation bit-identity: routing the exchange through the
//      channel with an inert LinkModel reproduces the synchronous
//      trajectory bit for bit (ratios AND the decision distribution).
//   2. Consensus convergence: at drop rates up to 0.30 (with delays,
//      duplicates, and reordering riding along) the desired decision
//      fields are still attained — the tail mean field violation stays
//      under kTailViolationBound. Degradation bends the trajectory; it
//      must not break the control loop.
//   3. Bounded heal time: after a partition window closes, the plant
//      re-attains the desired fields in at most kHealBoundRounds rounds
//      (the bound EXPERIMENTS.md documents).
//
// Output is one JSON document on stdout:
//
//   ./build/bench/bench_partition > BENCH_partition.json
//   ./build/bench/bench_partition --smoke          # CI configuration
//   ./build/bench/bench_partition --cell drop30-delay-middle  # 1-cell repro
//
// On violation the offending cell's seed and full network schedule are
// printed to stderr and the process exits non-zero.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/link_model.h"
#include "scenario/scenario.h"
#include "sim/metrics.h"
#include "system/system.h"

using namespace avcp;

namespace {

std::size_t kRounds = 120;
std::size_t kTailRounds = 25;
// The window covers the convergence transient on purpose: once the plant
// reaches the (absorbing) desired field, severed links cannot move it, so
// a late partition is a no-op. Cutting the exchange while consensus is
// still forming is the adversarial placement.
std::size_t kPartitionStart = 2;
std::size_t kPartitionDuration = 12;
constexpr std::uint64_t kPlantSeed = 11;
constexpr std::uint64_t kNetSeed = 404;

// The documented invariant bounds (EXPERIMENTS.md §"Degraded transport").
// kFieldTol absorbs finite-fleet granularity: with 60 vehicles per region
// one imitation flip moves a proportion by 1/60.
constexpr double kFieldTol = 0.05;
constexpr double kTailViolationBound = 0.05;
constexpr std::size_t kHealBoundRounds = 30;
// Degradation may slow convergence, never stop it: every cell must attain
// the fields within this many rounds of the clean twin's attainment.
constexpr std::size_t kAttainSlackRounds = 15;

/// How far the state sits outside the desired fields: max over
/// (region, decision) of the distance from p to its target interval.
double field_violation(const core::DesiredFields& fields,
                       const core::GameState& state) {
  double worst = 0.0;
  for (core::RegionId i = 0; i < fields.num_regions(); ++i) {
    for (core::DecisionId k = 0; k < fields.num_decisions(); ++k) {
      const Interval& target = fields.target(i, k);
      const double p = state.p[i][k];
      const double out = p < target.lo ? target.lo - p
                         : p > target.hi ? p - target.hi
                                         : 0.0;
      worst = std::max(worst, out);
    }
  }
  return worst;
}

/// Which component each chain region falls into during the window. On the
/// 3-chain, kTail cuts only the 1-2 link (region 2 alone); kIsolate puts
/// every region in its own component (both links cut).
enum class PartitionPattern { kNone, kTail, kIsolate };

const char* pattern_name(PartitionPattern p) {
  switch (p) {
    case PartitionPattern::kNone: return "none";
    case PartitionPattern::kTail: return "tail";
    case PartitionPattern::kIsolate: return "isolate";
  }
  return "?";
}

struct CellSpec {
  std::string name;
  double drop_rate = 0.0;
  double delay_rate = 0.0;
  PartitionPattern partition = PartitionPattern::kNone;
};

net::NetParams cell_net(const CellSpec& spec) {
  net::NetParams net;
  net.drop_rate = spec.drop_rate;
  net.delay_rate = spec.delay_rate;
  net.max_delay_rounds = 2;
  net.duplicate_rate = spec.delay_rate > 0.0 ? 0.1 : 0.0;
  net.reorder_rate = spec.delay_rate > 0.0 ? 0.1 : 0.0;
  net.max_retries = 2;
  net.backoff_base = 1;
  net.max_staleness = 3;
  net.model_transport = true;  // every cell exercises the channel path
  net.seed = kNetSeed;
  if (spec.partition != PartitionPattern::kNone) {
    net::PartitionWindow w;
    w.first_round = kPartitionStart;
    w.duration = kPartitionDuration;
    w.component = spec.partition == PartitionPattern::kTail
                      ? std::vector<std::uint32_t>{0, 0, 1}   // 1-2 link cut
                      : std::vector<std::uint32_t>{0, 1, 2};  // every link cut
    net.partitions.push_back(w);
  }
  return net;
}

struct Trajectory {
  std::vector<std::vector<double>> x;  // [round][region]
  std::vector<core::GameState> state;
  // Cumulative transport counters over the run.
  std::size_t sent = 0, delivered = 0, dropped = 0, severed = 0;
  std::size_t retries = 0, expired = 0, duplicates = 0;
  std::size_t stale_links = 0, blind_links = 0;
};

Trajectory run_plant(const core::MultiRegionGame& game,
                     const net::NetParams& net) {
  system::SystemParams params;
  params.vehicles_per_region = 60;
  params.seed = kPlantSeed;
  params.net = net;
  system::CooperativePerceptionSystem plant(game, params, nullptr);
  plant.init_from(game.uniform_state());

  const auto fields =
      scenario::floor_fields(game.num_regions(), game.num_decisions());
  core::FdsOptions options;
  options.max_step = 0.15;
  core::FdsController controller(game, fields, options);

  Trajectory out;
  out.x.reserve(kRounds);
  out.state.reserve(kRounds);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto report = plant.run_round(controller);
    out.x.push_back(report.x);
    out.state.push_back(report.state);
    out.sent += report.net.sent;
    out.delivered += report.net.delivered;
    out.dropped += report.net.dropped;
    out.severed += report.net.severed;
    out.retries += report.net.retries;
    out.expired += report.net.expired;
    out.duplicates += report.net.duplicates;
    out.stale_links += report.net.stale_links;
    out.blind_links += report.net.blind_links;
  }
  return out;
}

double linf(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

struct CellResult {
  CellSpec spec;
  Trajectory traj;
  double tail_violation = 0.0;   // mean field violation over tail rounds
  double max_violation = 0.0;    // worst round anywhere in the run
  double max_p_error = 0.0;      // worst divergence from the clean twin
  std::size_t attained_round = sim::kNoReconvergence;
  bool converged = false;        // tail violation within the bound
  bool healed = true;
  std::size_t heal_rounds = 0;
  bool ok = true;
};

CellResult evaluate_cell(const core::MultiRegionGame& game,
                         const core::DesiredFields& fields,
                         const CellSpec& spec, const Trajectory& clean,
                         std::size_t clean_attained) {
  CellResult result;
  result.spec = spec;
  result.traj = run_plant(game, cell_net(spec));

  double tail_sum = 0.0;
  for (std::size_t t = 0; t < kRounds; ++t) {
    const double violation = field_violation(fields, result.traj.state[t]);
    result.max_violation = std::max(result.max_violation, violation);
    if (t >= kRounds - kTailRounds) tail_sum += violation;
    for (std::size_t i = 0; i < result.traj.state[t].p.size(); ++i) {
      result.max_p_error = std::max(
          result.max_p_error,
          linf(result.traj.state[t].p[i], clean.state[t].p[i]));
    }
    if (result.attained_round == sim::kNoReconvergence &&
        fields.satisfied(result.traj.state[t], kFieldTol)) {
      result.attained_round = t;
    }
  }
  result.tail_violation = tail_sum / static_cast<double>(kTailRounds);
  // Converged = the fields were attained and the tail holds them. Wire
  // degradation alone must not slow attainment by more than
  // kAttainSlackRounds; a partitioned cell instead answers to the heal
  // bound below (it cannot be expected to converge while its links are
  // severed).
  result.converged = result.tail_violation <= kTailViolationBound &&
                     result.attained_round != sim::kNoReconvergence;
  if (spec.partition == PartitionPattern::kNone) {
    result.converged = result.converged &&
                       result.attained_round <=
                           clean_attained + kAttainSlackRounds;
  }

  if (spec.partition != PartitionPattern::kNone) {
    // Heal time: rounds past the window's end until the desired fields are
    // first re-attained (sim::rounds_to_reconverge, the bench_faults
    // convention for outage recovery).
    const std::size_t end = kPartitionStart + kPartitionDuration;
    result.heal_rounds = sim::rounds_to_reconverge(
        result.traj.state, fields, end, kFieldTol);
    result.healed = result.heal_rounds != sim::kNoReconvergence;
    result.ok = result.converged && result.healed &&
                result.heal_rounds <= kHealBoundRounds;
  } else {
    result.ok = result.converged;
  }
  return result;
}

void print_violation(const CellResult& r) {
  const net::NetParams net = cell_net(r.spec);
  std::fprintf(stderr,
               "INVARIANT VIOLATION in cell \"%s\": tail_violation=%.4f "
               "(bound %.2f), attained_round=%lld, healed=%s, "
               "heal_rounds=%zu (bound %zu)\n",
               r.spec.name.c_str(), r.tail_violation, kTailViolationBound,
               r.attained_round == sim::kNoReconvergence
                   ? -1ll
                   : static_cast<long long>(r.attained_round),
               r.healed ? "true" : "false", r.heal_rounds, kHealBoundRounds);
  std::fprintf(stderr,
               "  schedule: net_seed=%llu plant_seed=%llu drop=%.2f "
               "delay=%.2f dup=%.2f reorder=%.2f max_delay=%zu retries=%zu "
               "backoff=%zu staleness=%zu partition=%s window=[%zu,%zu)\n",
               static_cast<unsigned long long>(net.seed),
               static_cast<unsigned long long>(kPlantSeed), net.drop_rate,
               net.delay_rate, net.duplicate_rate, net.reorder_rate,
               net.max_delay_rounds, net.max_retries, net.backoff_base,
               net.max_staleness, pattern_name(r.spec.partition),
               kPartitionStart, kPartitionStart + kPartitionDuration);
  std::fprintf(stderr,
               "  repro: ./build/bench/bench_partition%s --cell %s "
               "(fully deterministic)\n",
               kRounds < 100 ? " --smoke" : "", r.spec.name.c_str());
}

void print_cell_json(const CellResult& r, bool last) {
  std::printf(
      "    {\"name\": \"%s\", \"drop_rate\": %.2f, \"delay_rate\": %.2f,\n"
      "     \"partition\": \"%s\",\n"
      "     \"tail_violation\": %.6f, \"max_violation\": %.6f, "
      "\"max_p_error\": %.6f,\n"
      "     \"attained_round\": %lld,\n"
      "     \"converged\": %s, \"healed\": %s, \"heal_rounds\": %zu,\n"
      "     \"sent\": %zu, \"delivered\": %zu, \"dropped\": %zu, "
      "\"severed\": %zu,\n"
      "     \"retries\": %zu, \"expired\": %zu, \"duplicates\": %zu,\n"
      "     \"stale_links\": %zu, \"blind_links\": %zu, \"ok\": %s}%s\n",
      r.spec.name.c_str(), r.spec.drop_rate, r.spec.delay_rate,
      pattern_name(r.spec.partition), r.tail_violation, r.max_violation,
      r.max_p_error,
      r.attained_round == sim::kNoReconvergence
          ? -1ll
          : static_cast<long long>(r.attained_round),
      r.converged ? "true" : "false", r.healed ? "true" : "false",
      r.healed ? r.heal_rounds : std::size_t{0}, r.traj.sent,
      r.traj.delivered, r.traj.dropped, r.traj.severed, r.traj.retries,
      r.traj.expired, r.traj.duplicates, r.traj.stale_links,
      r.traj.blind_links, r.ok ? "true" : "false", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string only_cell;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--cell") == 0 && i + 1 < argc) {
      only_cell = argv[++i];
    }
  }
  std::vector<double> drop_rates = {0.0, 0.1, 0.3};
  std::vector<double> delay_rates = {0.0, 0.3};
  std::vector<PartitionPattern> patterns = {
      PartitionPattern::kNone, PartitionPattern::kTail,
      PartitionPattern::kIsolate};
  if (smoke) {
    kRounds = 60;
    kTailRounds = 15;
    kPartitionStart = 2;
    kPartitionDuration = 8;
    drop_rates = {0.0, 0.3};
    delay_rates = {0.3};
    patterns = {PartitionPattern::kNone, PartitionPattern::kIsolate};
  }

  // The shared scenario plant (the bench_faults one): a 3-region beta-4.0
  // chain whose desired field is attainable on the measured system.
  const auto game = scenario::chain_game(3, 4.0);
  const auto fields =
      scenario::floor_fields(game.num_regions(), game.num_decisions());

  // The clean twin every cell diffs against: transport off entirely.
  const Trajectory clean = run_plant(game, net::NetParams{});
  std::size_t clean_attained = sim::kNoReconvergence;
  for (std::size_t t = 0; t < kRounds; ++t) {
    if (fields.satisfied(clean.state[t], kFieldTol)) {
      clean_attained = t;
      break;
    }
  }

  // Invariant 1 — zero-degradation bit-identity. The inert-channel arm
  // must reproduce the clean twin exactly, bit for bit.
  net::NetParams inert;
  inert.model_transport = true;
  const Trajectory wired = run_plant(game, inert);
  bool bit_identical = wired.x.size() == clean.x.size();
  for (std::size_t t = 0; bit_identical && t < kRounds; ++t) {
    bit_identical = wired.x[t] == clean.x[t] &&
                    wired.state[t].p == clean.state[t].p;
  }

  std::vector<CellResult> results;
  std::size_t violations = bit_identical ? 0 : 1;
  if (!bit_identical) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: zero-degradation transport is not "
                 "bit-identical to the synchronous exchange "
                 "(plant_seed=%llu)\n",
                 static_cast<unsigned long long>(kPlantSeed));
  }
  for (const double drop : drop_rates) {
    for (const double delay : delay_rates) {
      for (const PartitionPattern pattern : patterns) {
        CellSpec spec;
        spec.drop_rate = drop;
        spec.delay_rate = delay;
        spec.partition = pattern;
        char name[64];
        std::snprintf(name, sizeof name, "drop%02d%s-%s",
                      static_cast<int>(drop * 100 + 0.5),
                      delay > 0.0 ? "-delay" : "", pattern_name(pattern));
        spec.name = name;
        if (!only_cell.empty() && only_cell != spec.name) continue;
        results.push_back(
            evaluate_cell(game, fields, spec, clean, clean_attained));
        if (!results.back().ok) {
          ++violations;
          print_violation(results.back());
        }
      }
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_partition\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"rounds\": %zu,\n", kRounds);
  std::printf("  \"tail_rounds\": %zu,\n", kTailRounds);
  std::printf("  \"partition_start\": %zu,\n", kPartitionStart);
  std::printf("  \"partition_duration\": %zu,\n", kPartitionDuration);
  std::printf("  \"net_seed\": %llu,\n",
              static_cast<unsigned long long>(kNetSeed));
  std::printf("  \"field_tol\": %.2f,\n", kFieldTol);
  std::printf("  \"tail_violation_bound\": %.2f,\n", kTailViolationBound);
  std::printf("  \"heal_bound_rounds\": %zu,\n", kHealBoundRounds);
  std::printf("  \"clean_attained_round\": %lld,\n",
              clean_attained == sim::kNoReconvergence
                  ? -1ll
                  : static_cast<long long>(clean_attained));
  std::printf("  \"zero_degradation_bit_identical\": %s,\n",
              bit_identical ? "true" : "false");
  std::printf("  \"sweep\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    print_cell_json(results[i], i + 1 == results.size());
  }
  std::printf("  ],\n");
  std::printf("  \"violations\": %zu\n", violations);
  std::printf("}\n");

  const int json_rc = bench::finish_json_output();
  return violations > 0 ? 1 : json_rc;
}
