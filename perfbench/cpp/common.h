// Shared pieces of the repository benchmark: run options, the machine-speed
// reference, the result record every workload fills, the sliced closed-loop
// round timer, the span tracer, the allocation counter, and the pinned
// paper-shaped inputs.
//
// The benchmark drives the engines strictly from outside: every timing is
// taken around a call into a public function, so the numbers describe what
// a caller of the library sees. Workload inputs are pinned here rather than
// borrowed from bench/bench_common.h so that editing a reproduction bench
// can never silently change what this benchmark measures.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fds.h"
#include "core/game.h"
#include "sim/pipeline.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoint files and the span dump (created on demand).
  std::filesystem::path scratch = ".bench_build/scratch";
};

/// Monotonic wall clock in seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process in megabytes (10^6 bytes), less the
/// SpeedReference buffer, which the program under test never sees.
double peak_rss_mb();

/// Wall-clock start and end (seconds) of one timed operation.
struct Timed {
  double start = 0.0;
  double end = 0.0;
};

/// A SpeedReference tick: `cpu_iters` rounds of cache-resident integer and
/// floating-point work plus `mem_iters` random read-modify-writes over a
/// 16 MiB buffer. `nominal_s` only sets the scale of the calibrated
/// numbers: it is about the tick's median inside benchmark runs on the
/// reference machine in its fast regime, so calibrated timings are of the
/// order of that regime's wall times.
struct TickMix {
  std::size_t cpu_iters;
  std::size_t mem_iters;
  double nominal_s;
};
/// Half compute, half random memory access: tracks `plant` and `service`
/// rounds and the paper-city set-up.
inline constexpr TickMix kMixedTick{30000, 10000, 0.36e-3};
/// Random memory access only: tracks `fleet` rounds (streaming the shard
/// arenas) and `chaos` rounds, which moved with the machine about a quarter
/// more than the mixed tick did.
inline constexpr TickMix kMemoryTick{0, 20000, 0.28e-3};

/// Machine-speed reference. The machine this benchmark was tuned on is
/// shared: it alternates between a fast and a slow regime every few seconds
/// (slow rounds take 35-60% longer, memory-bound work the most), so the raw
/// median of a run lands in whichever regime held most of it. Every timing
/// the benchmark reports is therefore expressed at the reference speed: its
/// wall time times nominal / measured time of a fixed tick, with the tick
/// measured every kProbeInterval between operations and interpolated at the
/// operation's midpoint. The tick is the benchmark's own code, never the
/// program under test. Its memory part evicts the core's caches, so the
/// round after a probe is never timed (see run_sliced).
class SpeedReference {
 public:
  explicit SpeedReference(const TickMix& mix);

  /// Times kTicksPerProbe ticks now and records their median.
  void probe();
  /// probe() when the last probe is older than kProbeInterval; true when it
  /// probed.
  bool maybe_probe() {
    if (now_s() - last_ < kProbeInterval) return false;
    probe();
    return true;
  }
  /// Duration of `t` at the reference speed.
  double calibrated(const Timed& t) const;
  /// Median calibrated duration of `ts`.
  double calibrated_median(const std::vector<Timed>& ts) const;
  /// Median measured tick (seconds), for the raw report.
  double median_tick() const;

  static constexpr double kProbeInterval = 0.25;
  static constexpr int kTicksPerProbe = 5;
  static constexpr double kBufferMb = 16.777216;  // 2^22 x 4 bytes

 private:
  double tick();

  TickMix mix_;
  double last_ = 0.0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  double sink_ = 0.0;
  std::vector<std::pair<double, double>> probes_;  // (time, tick seconds)
};

/// FNV-1a over the bit patterns of doubles.
class Digest {
 public:
  void add(double v);
  void add(std::span<const double> v) {
    for (const double x : v) add(x);
  }
  void add(const avcp::core::GameState& s) {
    for (const auto& row : s.p) add(row);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Rounds covered by the printed trajectory digest: fixed, so the digest is
/// comparable between runs of any length, traced or not.
inline constexpr std::size_t kDigestRounds = 40;

/// Digest of a run's per-round ratios and decision shares: over the first
/// kDigestRounds rounds (printed) and over the whole run (compared between
/// the traced run's twin engines).
class TrajectoryDigest {
 public:
  template <typename... Parts>
  void add_round(const Parts&... parts) {
    if (rounds_ < kDigestRounds) (prefix_.add(parts), ...);
    (full_.add(parts), ...);
    ++rounds_;
  }
  std::uint64_t prefix() const noexcept { return prefix_.value(); }
  std::uint64_t full() const noexcept { return full_.value(); }
  std::size_t rounds() const noexcept { return rounds_; }
  bool operator==(const TrajectoryDigest& o) const noexcept {
    return rounds_ == o.rounds_ && prefix() == o.prefix() && full() == o.full();
  }

 private:
  Digest prefix_;
  Digest full_;
  std::size_t rounds_ = 0;
};

/// Allocations made by this process since start-up (operator new calls
/// while counting is switched on; the traced run switches it on around
/// engine calls only).
std::uint64_t allocations();
void count_allocations(bool on);

/// One recorded span: a call from the benchmark into a layer.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;     // index of the enclosing span, -1 at top level
  long round = -1;     // round the span belongs to, -1 during set-up
};

/// In-memory span recorder. Spans nest by call structure: a span opened
/// while another is open becomes its child, so a layer's self time is its
/// duration minus its children's. Written out once, at the end of the run.
class Tracer {
 public:
  /// Capacity is reserved up front so recording never allocates inside a
  /// span (the traced run counts allocations made by engine calls).
  Tracer();

  int open(const char* name, long round);
  void close(int span);

  enum class Measure { kTotal, kSelf };
  /// Seconds spent in spans named `name` with round >= first_round, summed
  /// per round, in round order.
  std::vector<double> by_round(const char* name, Measure m,
                               long first_round) const;
  /// Seconds of every span named `name`, one entry per span.
  std::vector<double> each(const char* name, Measure m) const;
  /// Seconds of every span named `name`, summed.
  double total(const char* name, Measure m) const;

  void write_json(const std::filesystem::path& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, const char* name, long round)
      : t_(t), id_(t_ != nullptr ? t_->open(name, round) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Controller decorator: forwards to the wrapped controller inside a
/// "core.fds" span. Stateless, so it never changes what the loop computes.
class TracedController final : public avcp::core::Controller {
 public:
  TracedController(avcp::core::Controller& inner, Tracer& tracer,
                   const long& round)
      : inner_(inner), tracer_(tracer), round_(round) {}
  std::vector<double> next_x(const avcp::core::GameState& state,
                              const std::vector<double>& x_prev) override;
  void next_x_into(const avcp::core::GameState& state,
                   const std::vector<double>& x_prev,
                   std::vector<double>& out) override;

 private:
  avcp::core::Controller& inner_;
  Tracer& tracer_;
  const long& round_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run reports. `attempted`/`failed` count operations: each
/// timed round and each restore is one, and it fails when its output check
/// does. `correct` additionally covers the run-level checks (digest
/// identity with tracing on and off, region specs equal to the pipeline's).
struct Result {
  std::map<std::string, Metric> metrics;
  /// Uncalibrated wall-clock counterparts, for the human-readable report.
  std::map<std::string, Metric> raw;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::uint64_t digest = 0;  // TrajectoryDigest::prefix()
  std::vector<std::string> errors;  // first few check failures, for humans

  void set(const std::string& name, double value, const char* unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records one operation's check outcome.
  void check(bool ok, const std::string& what);
  /// Records a run-level check (not an operation).
  void require(bool ok, const std::string& what);
};

/// Timed rounds every run makes at least, so p90 has more than ten samples
/// beyond it whatever --seconds says.
inline constexpr std::size_t kMinTimedRounds = 120;
/// Rounds over which the traced run's exact counters are summed (from the
/// engine's first round), fixed so the counts repeat exactly per seed.
inline constexpr std::size_t kCountRounds = 100;
/// Slices a run's measurements are spread over (see run_sliced).
inline constexpr std::size_t kSlices = 5;

/// Timed rounds of a run: --seconds times the workload's nominal rate (its
/// rounds per second on the reference machine), never fewer than
/// kMinTimedRounds. A fixed count rather than a deadline, so every run of a
/// seed, and both sides of a comparison, time the same window of the
/// trajectory; per-round cost drifts along the trajectory as the decision
/// mix converges.
std::size_t timed_rounds(double seconds, double nominal_rounds_per_s);
/// The traced run times a quarter of that window (its layer numbers are
/// per-round medians, and it runs two engines).
inline std::size_t traced_rounds(double seconds, double nominal_rounds_per_s) {
  return timed_rounds(seconds / 4, nominal_rounds_per_s);
}
/// A machine much slower than the reference stops timing rounds (beyond
/// kMinTimedRounds) once the sliced phase has taken this many times
/// --seconds, so a run's length stays bounded.
inline constexpr double kCapFactor = 1.4;

/// Per-round timings of a closed loop: one caller, the next round starts
/// when the previous returns.
struct RoundTimes {
  std::vector<Timed> rounds;
  double vehicle_rounds = 0.0;  // vehicles served, summed
};

/// Runs `rounds` timed rounds as a closed loop (`round()` is timed and
/// returns the vehicles served; `check()` follows it, untimed), and between
/// them `setups` calls of `setup()` and `restores` calls of `restore()`
/// (each timing itself). Everything is spread evenly over kSlices slices,
/// so a slow or fast phase of a shared machine lands on every metric alike
/// instead of on whichever was measured during it. Each slice's set-ups and
/// restores run as one batch between two probes, so every restore but the
/// first of a batch follows another restore. A timed round always follows
/// another round of the loop: the first round after a probe or a batch
/// runs on caches the benchmark's own work has evicted, so it is served and
/// checked but not timed. Timed rounds stop early (never below
/// kMinTimedRounds) once `cap_s` seconds have passed.
template <typename Round, typename Check, typename Setup, typename Restore>
RoundTimes run_sliced(SpeedReference& speed, std::size_t rounds, double cap_s,
                      std::size_t setups, std::size_t restores, Round&& round,
                      Check&& check, Setup&& setup, Restore&& restore) {
  RoundTimes out;
  out.rounds.reserve(rounds);
  const double deadline = now_s() + cap_s;
  auto more = [&](std::size_t target) {
    return out.rounds.size() < target &&
           (out.rounds.size() < kMinTimedRounds || now_s() < deadline);
  };
  bool cold = true;  // the warm-up ends with probes of its own
  for (std::size_t s = 0; s < kSlices; ++s) {
    while (more(rounds * (s + 1) / kSlices)) {
      if (cold) {
        round();
        check();
        cold = false;
        continue;
      }
      Timed t;
      t.start = now_s();
      const std::size_t served = round();
      t.end = now_s();
      out.rounds.push_back(t);
      out.vehicle_rounds += static_cast<double>(served);
      check();
      cold = speed.maybe_probe();
    }
    const std::size_t setup_end = setups * (s + 1) / kSlices;
    const std::size_t restore_end = restores * (s + 1) / kSlices;
    std::size_t i = setups * s / kSlices;
    std::size_t j = restores * s / kSlices;
    if (i == setup_end && j == restore_end) continue;
    speed.probe();
    for (; i < setup_end; ++i) setup();
    for (; j < restore_end; ++j) restore();
    speed.probe();
    cold = true;
  }
  speed.probe();
  return out;
}

/// Fills the end-to-end metrics (calibrated, with raw counterparts) from a
/// closed loop, the set-up repetitions and the restores.
void report_run(Result& r, const SpeedReference& speed,
                const RoundTimes& times, const std::vector<Timed>& setups,
                const std::vector<Timed>& restores);

// ---------------------------------------------------------------------------
// Pinned workload inputs (the paper-shaped city, game and targets).

/// Paper-shaped pipeline: 18x24 city, 400 traced vehicles over 3 h, 100
/// edge servers, 20 regions, betweenness clustering, streamed traces.
avcp::sim::PipelineConfig paper_pipeline();

/// The static inputs of the paper-city workloads, built once per set-up and
/// shared by every engine instance: the pipeline's artifacts, the paper's
/// 8-decision game over its region specs, and the desired fields, an
/// eps-box (0.05) around the equilibrium the replicator reaches from the
/// uniform state under the constant ratio 0.75 (attainable by design).
struct PaperInputs {
  avcp::sim::PipelineArtifacts artifacts;
  std::optional<avcp::core::MultiRegionGame> game;
  std::optional<avcp::core::DesiredFields> fields;

  /// Builds game and fields from `artifacts`.
  void finish();
  /// build_pipeline(paper_pipeline()) and finish().
  static std::unique_ptr<PaperInputs> build();
};

/// FDS smoothness bound used by every FDS workload.
inline constexpr double kFdsMaxStep = 0.1;
avcp::core::FdsOptions fds_options();

/// True when every row is a distribution (entries in [0,1], sum 1).
bool is_distribution(const avcp::core::GameState& s, double tol = 1e-9);
/// True when every ratio is finite and in [0, 1].
bool ratios_ok(std::span<const double> x);

/// build_pipeline's public stages called one at a time, in its streamed
/// order (`keep_fixes = false`), each inside a set-up span: roadnet.city,
/// roadnet.betweenness, spatial.voronoi, cluster.clustering, then the
/// trace generator's pass feeding the region-graph accumulator. That pass
/// is a trace.generate span; a callback decorator hands the fixes on to the
/// accumulator in small batches, each inside a cluster.region_graph child
/// span, and the graph's build is one more. So trace.generate's self time
/// is generation and the cluster.region_graph spans sum to accumulation and
/// build, on the code path set-up runs.
avcp::sim::PipelineArtifacts staged_pipeline(
    const avcp::sim::PipelineConfig& config, Tracer& tracer);

/// Exact (bitwise) equality of two region-spec lists.
bool same_specs(const std::vector<avcp::core::RegionSpec>& a,
                const std::vector<avcp::core::RegionSpec>& b);

/// Checkpoint path for a workload run inside the scratch directory.
std::filesystem::path checkpoint_path(const Options& o);
/// Where the traced run writes its spans.
std::filesystem::path spans_path(const Options& o);

inline double median_ms(std::vector<double> v) {
  return 1e3 * median(std::move(v));
}

/// Per-layer metrics shared by the paper-city traced runs: the pipeline
/// stages of staged_pipeline(), and the checkpoint spans (checkpoint.save,
/// .write, .open, .load, system.restore_round) plus the file size.
void report_pipeline_layers(const Tracer& tracer, Result& r);
void report_checkpoint_layers(const Tracer& tracer, Result& r,
                              const std::filesystem::path& checkpoint);

/// Transport counts of a traced run's count window.
struct NetCounts {
  std::size_t sent = 0, delivered = 0, dropped = 0, retries = 0, expired = 0;
  std::size_t stale_links = 0, blind_links = 0;
  void report(Result& r) const;
};

// Workload entry points.
Result run_plant(const Options& o);  // also serves "chaos"
Result run_fleet(const Options& o);
Result run_service(const Options& o);

}  // namespace perfbench
