#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include <sys/resource.h>

#include "cluster/region_clustering.h"
#include "cluster/region_graph.h"
#include "core/sensor_model.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"
#include "spatial/voronoi.h"
#include "trace/generator.h"

// Counting global allocator. Counting is off by default, so the untraced
// run pays one relaxed load per allocation; the traced run switches it on
// around engine calls to report allocations per round.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace avcp;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // ru_maxrss is in KiB.
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6 -
         SpeedReference::kBufferMb;
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

Tracer::Tracer() {
  spans_.reserve(std::size_t{1} << 18);
  stack_.reserve(64);
}

int Tracer::open(const char* name, long round) {
  Span s;
  s.name = name;
  s.round = round;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  spans_.back().start = now_s();  // last, so bookkeeping is outside the span
  return id;
}

void Tracer::close(int span) {
  const double t = now_s();
  spans_[static_cast<std::size_t>(span)].end = t;
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

namespace {
/// Children's total duration per span (what self time subtracts).
std::vector<double> child_time(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  return child;
}
}  // namespace

std::vector<double> Tracer::by_round(const char* name, Measure m,
                                     long first_round) const {
  const std::vector<double> child = child_time(spans_);
  std::map<long, double> rounds;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.round < first_round || std::strcmp(s.name, name) != 0) continue;
    rounds[s.round] +=
        s.end - s.start - (m == Measure::kSelf ? child[i] : 0.0);
  }
  std::vector<double> out;
  out.reserve(rounds.size());
  for (const auto& [round, v] : rounds) out.push_back(v);
  return out;
}

std::vector<double> Tracer::each(const char* name, Measure m) const {
  const std::vector<double> child = child_time(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::strcmp(s.name, name) != 0) continue;
    out.push_back(s.end - s.start - (m == Measure::kSelf ? child[i] : 0.0));
  }
  return out;
}

double Tracer::total(const char* name, Measure m) const {
  double sum = 0.0;
  for (const double v : each(name, m)) sum += v;
  return sum;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"clock\": \"steady_clock seconds from first span\",\n");
  std::fprintf(f, " \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"round\": %ld}%s\n",
                 s.name, s.start - t0, s.end - t0, s.parent, s.round,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, " ]}\n");
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) throw std::runtime_error("short write to " + path.string());
}

std::vector<double> TracedController::next_x(
    const core::GameState& state, const std::vector<double>& x_prev) {
  Scope span(&tracer_, "core.fds", round_);
  return inner_.next_x(state, x_prev);
}

void TracedController::next_x_into(const core::GameState& state,
                                   const std::vector<double>& x_prev,
                                   std::vector<double>& out) {
  Scope span(&tracer_, "core.fds", round_);
  inner_.next_x_into(state, x_prev, out);
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void Result::require(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

std::size_t timed_rounds(double seconds, double nominal_rounds_per_s) {
  const double n = std::round(seconds * nominal_rounds_per_s);
  return std::max(kMinTimedRounds, static_cast<std::size_t>(n));
}

namespace {
std::vector<std::uint32_t>& reference_buffer() {
  static std::vector<std::uint32_t> buffer(std::size_t{1} << 22, 1u);
  return buffer;
}
}  // namespace

SpeedReference::SpeedReference(const TickMix& mix) : mix_(mix) {
  reference_buffer();  // allocate and touch before the first probe
  probes_.reserve(4096);
  probe();
}

double SpeedReference::tick() {
  std::uint32_t local[256] = {};
  double acc = 0.0;
  std::uint64_t x = state_;
  for (std::size_t i = 0; i < mix_.cpu_iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    local[x & 255] += static_cast<std::uint32_t>(x >> 40);
    if ((x & 7) < 3) {
      acc += std::sqrt(static_cast<double>(local[(x >> 8) & 255]));
    }
  }
  std::vector<std::uint32_t>& buffer = reference_buffer();
  for (std::size_t i = 0; i < mix_.mem_iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& v = buffer[x & (buffer.size() - 1)];
    v += 1;
    acc += v;
  }
  state_ = x;
  return acc;
}

void SpeedReference::probe() {
  double ticks[kTicksPerProbe];
  for (double& t : ticks) {
    const double t0 = now_s();
    sink_ += tick();
    t = now_s() - t0;
  }
  std::sort(std::begin(ticks), std::end(ticks));
  last_ = now_s();
  probes_.emplace_back(last_, ticks[kTicksPerProbe / 2]);
}

double SpeedReference::calibrated(const Timed& t) const {
  const double mid = 0.5 * (t.start + t.end);
  const auto after = std::lower_bound(
      probes_.begin(), probes_.end(), mid,
      [](const std::pair<double, double>& p, double v) { return p.first < v; });
  double tick = 0.0;
  if (after == probes_.begin()) {
    tick = after->second;
  } else if (after == probes_.end()) {
    tick = probes_.back().second;
  } else {
    const auto before = after - 1;
    const double w = (mid - before->first) / (after->first - before->first);
    tick = before->second + w * (after->second - before->second);
  }
  return (t.end - t.start) * mix_.nominal_s / tick;
}

double SpeedReference::calibrated_median(const std::vector<Timed>& ts) const {
  std::vector<double> v;
  v.reserve(ts.size());
  for (const Timed& t : ts) v.push_back(calibrated(t));
  return median(std::move(v));
}

double SpeedReference::median_tick() const {
  std::vector<double> v;
  v.reserve(probes_.size());
  for (const auto& p : probes_) v.push_back(p.second);
  return median(std::move(v));
}

void report_run(Result& r, const SpeedReference& speed,
                const RoundTimes& times, const std::vector<Timed>& setups,
                const std::vector<Timed>& restores) {
  const std::size_t n = times.rounds.size();
  std::vector<double> cal, raw;
  cal.reserve(n);
  raw.reserve(n);
  for (const Timed& t : times.rounds) {
    cal.push_back(speed.calibrated(t));
    raw.push_back(t.end - t.start);
  }
  double cal_total = 0.0, raw_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cal_total += cal[i];
    raw_total += raw[i];
  }
  auto durations = [](const std::vector<Timed>& ts) {
    std::vector<double> v;
    for (const Timed& t : ts) v.push_back(t.end - t.start);
    return v;
  };
  r.set("setup_s", speed.calibrated_median(setups), "s", setups.size());
  r.set("round_p50_ms", 1e3 * quantile(cal, 0.5), "ms", n);
  r.set("round_p90_ms", 1e3 * quantile(cal, 0.9), "ms", n);
  r.set("vehicle_rounds_per_s", times.vehicle_rounds / cal_total, "1/s", n);
  r.set("recovery_ms", 1e3 * speed.calibrated_median(restores), "ms",
        restores.size());
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.raw["setup_s"] = Metric{median(durations(setups)), "s", setups.size()};
  r.raw["round_p50_ms"] = Metric{1e3 * quantile(raw, 0.5), "ms", n};
  r.raw["round_p90_ms"] = Metric{1e3 * quantile(raw, 0.9), "ms", n};
  r.raw["vehicle_rounds_per_s"] =
      Metric{times.vehicle_rounds / raw_total, "1/s", n};
  r.raw["recovery_ms"] =
      Metric{1e3 * median(durations(restores)), "ms", restores.size()};
  r.raw["reference_tick_ms"] = Metric{1e3 * speed.median_tick(), "ms", 0};
}

sim::PipelineConfig paper_pipeline() {
  sim::PipelineConfig config;
  config.city.rows = 18;
  config.city.cols = 24;
  config.city.seed = 2022;
  config.traces.num_vehicles = 400;
  config.traces.duration_s = 3 * 3600.0;
  config.traces.seed = 2023;
  config.num_servers = 100;  // paper: 100 edge servers
  config.num_regions = 20;   // paper: 20 regions
  config.coefficient = sim::CoefficientKind::kBetweenness;
  config.td_window_s = 600.0;
  config.beta_lo = 2.0;
  config.beta_hi = 3.5;
  config.keep_fixes = false;
  return config;
}

void PaperInputs::finish() {
  core::GameConfig config;
  config.lattice = core::DecisionLattice(3);
  const auto tables = core::paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = 0.5;
  game.emplace(std::move(config), artifacts.region_specs);

  core::GameState eq = game->uniform_state();
  const std::vector<double> x(game->num_regions(), 0.75);
  for (int t = 0; t < 3000; ++t) game->replicator_step(eq, x);
  constexpr double eps = 0.05;
  fields.emplace(game->num_regions(), game->num_decisions());
  for (core::RegionId i = 0; i < game->num_regions(); ++i) {
    for (core::DecisionId k = 0; k < game->num_decisions(); ++k) {
      fields->set_target(i, k,
                         Interval{std::max(0.0, eq.p[i][k] - eps),
                                  std::min(1.0, eq.p[i][k] + eps)});
    }
  }
}

std::unique_ptr<PaperInputs> PaperInputs::build() {
  auto in = std::make_unique<PaperInputs>();
  in->artifacts = sim::build_pipeline(paper_pipeline());
  in->finish();
  return in;
}

core::FdsOptions fds_options() {
  core::FdsOptions options;
  options.max_step = kFdsMaxStep;
  return options;
}

bool is_distribution(const core::GameState& s, double tol) {
  for (const auto& row : s.p) {
    double sum = 0.0;
    for (const double p : row) {
      if (!(p >= -tol && p <= 1.0 + tol)) return false;
      sum += p;
    }
    if (!(std::abs(sum - 1.0) <= tol * static_cast<double>(row.size()) + tol)) {
      return false;
    }
  }
  return true;
}

bool ratios_ok(std::span<const double> x) {
  for (const double v : x) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) return false;
  }
  return true;
}

namespace {
/// Callback decorator for the trace generator's pass: hands the fixes on to
/// the region-graph accumulator unchanged and in order, in batches small
/// enough to stay in the first-level cache, each add batch inside a
/// cluster.region_graph span. Batching keeps the clock reads to a few
/// thousand over the pass's fixes.
class AccumulateInBatches {
 public:
  AccumulateInBatches(cluster::RegionGraphAccumulator& accumulator,
                      Tracer& tracer)
      : accumulator_(accumulator), tracer_(tracer) {
    batch_.reserve(kBatch);
  }
  void operator()(const trace::GpsFix& fix) {
    batch_.push_back(fix);
    if (batch_.size() == kBatch) flush();
  }
  void flush() {
    Scope span(&tracer_, "cluster.region_graph", -1);
    for (const trace::GpsFix& fix : batch_) accumulator_.add(fix);
    batch_.clear();
  }

 private:
  static constexpr std::size_t kBatch = 256;
  cluster::RegionGraphAccumulator& accumulator_;
  Tracer& tracer_;
  std::vector<trace::GpsFix> batch_;
};
}  // namespace

sim::PipelineArtifacts staged_pipeline(const sim::PipelineConfig& config,
                                       Tracer& tracer) {
  if (config.coefficient != sim::CoefficientKind::kBetweenness ||
      config.keep_fixes) {
    throw std::invalid_argument(
        "staged_pipeline: streamed betweenness pipelines only");
  }
  sim::PipelineArtifacts a;
  {
    Scope span(&tracer, "roadnet.city", -1);
    a.graph = roadnet::build_city(config.city);
  }
  const trace::TraceGenerator generator(a.graph, config.traces);
  {
    Scope span(&tracer, "roadnet.betweenness", -1);
    a.coefficients = roadnet::segment_betweenness(a.graph);
  }
  {
    Scope span(&tracer, "spatial.voronoi", -1);
    std::vector<PointM> nodes;
    nodes.reserve(a.graph.num_intersections());
    for (std::size_t v = 0; v < a.graph.num_intersections(); ++v) {
      nodes.push_back(a.graph.intersection(static_cast<roadnet::NodeId>(v)));
    }
    a.server_positions = spatial::deploy_grid(spatial::BBoxM::around(nodes),
                                              config.num_servers);
    a.cell_of_segment =
        spatial::VoronoiPartition(a.server_positions).assign_segments(a.graph);
  }
  {
    Scope span(&tracer, "cluster.clustering", -1);
    const cluster::ClusteringOptions options{config.num_regions};
    a.clustering = cluster::cluster_segments(a.graph, a.coefficients, options);
  }
  cluster::RegionGraphInputs inputs;
  inputs.region_of_segment = a.clustering.region_of;
  inputs.cell_of_segment = a.cell_of_segment;
  inputs.num_regions = config.num_regions;
  inputs.num_cells = config.num_servers;
  inputs.window_s = config.traces.fix_interval_s;
  inputs.duration_s = config.traces.duration_s;
  cluster::RegionGraphAccumulator accumulator(inputs);
  AccumulateInBatches accumulate(accumulator, tracer);
  {
    Scope span(&tracer, "trace.generate", -1);
    generator.generate([&](const trace::GpsFix& fix) { accumulate(fix); });
  }
  {
    accumulate.flush();
    Scope span(&tracer, "cluster.region_graph", -1);
    a.region_graph = accumulator.build();
    a.region_graph.rescale_max(config.gamma_max);
  }
  a.region_specs =
      sim::make_region_specs(a.clustering, a.region_graph, a.coefficients,
                             config.beta_lo, config.beta_hi);
  return a;
}

bool same_specs(const std::vector<core::RegionSpec>& a,
                const std::vector<core::RegionSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].beta != b[i].beta || a[i].gamma_self != b[i].gamma_self ||
        a[i].neighbors != b[i].neighbors) {
      return false;
    }
  }
  return true;
}

std::filesystem::path spans_path(const Options& o) {
  return o.scratch / (o.workload + "-" + std::to_string(o.seed) +
                      "-spans.json");
}

void report_pipeline_layers(const Tracer& tracer, Result& r) {
  using M = Tracer::Measure;
  r.set("trace.generate_ms", 1e3 * tracer.total("trace.generate", M::kSelf),
        "ms");
  r.set("roadnet.betweenness_ms",
        1e3 * tracer.total("roadnet.betweenness", M::kTotal), "ms");
  r.set("cluster.clustering_ms",
        1e3 * tracer.total("cluster.clustering", M::kTotal), "ms");
  r.set("cluster.region_graph_ms",
        1e3 * tracer.total("cluster.region_graph", M::kTotal), "ms");
}

void report_checkpoint_layers(const Tracer& tracer, Result& r,
                              const std::filesystem::path& checkpoint) {
  for (const auto& [span, metric] :
       {std::pair{"checkpoint.save", "checkpoint.save_ms"},
        std::pair{"checkpoint.write", "checkpoint.write_ms"},
        std::pair{"checkpoint.open", "checkpoint.open_ms"},
        std::pair{"checkpoint.load", "checkpoint.load_ms"},
        std::pair{"system.restore_round", "system.restore_round_ms"}}) {
    const auto times = tracer.each(span, Tracer::Measure::kTotal);
    r.set(metric, median_ms(times), "ms", times.size());
  }
  r.set("checkpoint.bytes", double(std::filesystem::file_size(checkpoint)),
        "bytes");
}

void NetCounts::report(Result& r) const {
  const std::size_t n = kCountRounds;
  r.set("net.sent", double(sent), "count", n);
  r.set("net.delivered", double(delivered), "count", n);
  r.set("net.dropped", double(dropped), "count", n);
  r.set("net.retries", double(retries), "count", n);
  r.set("net.expired", double(expired), "count", n);
  r.set("net.stale_links", double(stale_links), "count", n);
  r.set("net.blind_links", double(blind_links), "count", n);
  r.set("net.delivered_share",
        sent == 0 ? 0.0 : double(delivered) / double(sent), "share", n);
}

std::filesystem::path checkpoint_path(const Options& o) {
  std::filesystem::create_directories(o.scratch);
  return o.scratch /
         (o.workload + "-" + std::to_string(o.seed) +
          (o.trace ? "-traced" : "") + ".ckpt");
}

}  // namespace perfbench
