// Self-registering micro-benchmark harness (no external dependency).
//
// Cases register themselves at static-init time through the BENCHMARK
// macro — the MathGeoLib-TestRunner idiom: the macro plants a static
// registrar whose initializer appends the case to a global registry, so
// adding a benchmark anywhere in the binary is one function + one macro
// line, and every future case is timed automatically. The registrar
// object doubles as a fluent handle for per-case control:
//
//   void BM_Thing(bench::State& state) {
//     for (auto _ : state) bench::DoNotOptimize(work(state.range(0)));
//     state.SetItemsProcessed(state.iterations() * n);
//   }
//   BENCHMARK(BM_Thing)->Arg(4)->Arg(100)->Trials(5)->MinTime(0.1);
//
// The runner auto-calibrates the iteration count until a repetition takes
// at least MinTime, then reports the best of Trials repetitions (min is
// the standard noise-robust estimator for microbenchmarks: noise is
// strictly additive).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

namespace avcp::bench {

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Per-repetition state handed to the case body. `for (auto _ : state)`
/// runs the calibrated iteration count; the timer covers exactly that
/// loop (setup before it is untimed).
class State {
 public:
  State(std::size_t iterations, std::vector<std::int64_t> args)
      : max_iterations_(iterations), args_(std::move(args)) {}

  class iterator {
   public:
    iterator(State* state, std::size_t remaining)
        : state_(state), remaining_(remaining) {}
    iterator& operator++() {
      --remaining_;
      return *this;
    }
    bool operator!=(const iterator& other) {
      if (remaining_ != other.remaining_) return true;
      state_->stop_timer();
      return false;
    }
    int operator*() const { return 0; }

   private:
    State* state_;
    std::size_t remaining_;
  };

  iterator begin() {
    start_ = std::chrono::steady_clock::now();
    return iterator(this, max_iterations_);
  }
  iterator end() { return iterator(this, 0); }

  std::int64_t range(std::size_t i = 0) const {
    return i < args_.size() ? args_[i] : 0;
  }
  std::size_t iterations() const noexcept { return max_iterations_; }

  /// Optional throughput metadata: total items processed across all
  /// iterations of this repetition (reported as a rate).
  void SetItemsProcessed(std::int64_t items) { items_processed_ = items; }
  void SetLabel(const std::string& label) { label_ = label; }

  double seconds() const noexcept { return seconds_; }
  std::int64_t items_processed() const noexcept { return items_processed_; }
  const std::string& label() const noexcept { return label_; }

 private:
  void stop_timer() {
    seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count();
  }

  std::size_t max_iterations_;
  std::vector<std::int64_t> args_;
  std::chrono::steady_clock::time_point start_{};
  double seconds_ = 0.0;
  std::int64_t items_processed_ = 0;
  std::string label_;
};

using BenchFn = void (*)(State&);

/// One registered case plus its run control. The BENCHMARK macro returns
/// the Registration*, so ->Arg()/->Args()/->Trials()/->MinTime() chain at
/// namespace scope.
class Registration {
 public:
  Registration(const char* name, BenchFn fn) : name_(name), fn_(fn) {}

  Registration* Arg(std::int64_t a) {
    arg_sets_.push_back({a});
    return this;
  }
  Registration* Args(std::vector<std::int64_t> args) {
    arg_sets_.push_back(std::move(args));
    return this;
  }
  /// Repetitions per case; the best (minimum) time is reported.
  Registration* Trials(int trials) {
    trials_ = trials < 1 ? 1 : trials;
    return this;
  }
  /// Calibration floor: iterations scale up until one repetition takes at
  /// least this long.
  Registration* MinTime(double seconds) {
    min_time_s_ = seconds;
    return this;
  }

  const char* name() const noexcept { return name_; }
  BenchFn fn() const noexcept { return fn_; }
  const std::vector<std::vector<std::int64_t>>& arg_sets() const noexcept {
    return arg_sets_;
  }
  int trials() const noexcept { return trials_; }
  double min_time() const noexcept { return min_time_s_; }

 private:
  const char* name_;
  BenchFn fn_;
  std::vector<std::vector<std::int64_t>> arg_sets_;
  int trials_ = 3;
  double min_time_s_ = 0.05;
};

/// Function-local static: registry construction order is safe no matter
/// which translation unit's registrars run first. The registry owns its
/// cases; a deque never moves an element it has handed out, so the
/// registrars' pointers stay valid while later cases register.
inline std::deque<Registration>& registry() {
  static std::deque<Registration> cases;
  return cases;
}

inline Registration* RegisterBench(const char* name, BenchFn fn) {
  return &registry().emplace_back(name, fn);
}

#define BENCHMARK(fn)                                \
  static ::avcp::bench::Registration* bench_reg_##fn =     \
      ::avcp::bench::RegisterBench(#fn, fn)

namespace detail {

inline std::string case_display_name(const Registration& reg,
                                     const std::vector<std::int64_t>& args) {
  std::string name = reg.name();
  for (const std::int64_t a : args) {
    name += '/';
    name += std::to_string(a);
  }
  return name;
}

inline double run_repetition(const Registration& reg,
                             const std::vector<std::int64_t>& args,
                             std::size_t iterations, State* out = nullptr) {
  State state(iterations, args);
  reg.fn()(state);
  if (out != nullptr) *out = std::move(state);
  return out != nullptr ? out->seconds() : state.seconds();
}

inline void format_time(double seconds_per_op, char* buf, std::size_t n) {
  if (seconds_per_op >= 1.0) {
    std::snprintf(buf, n, "%.3f s", seconds_per_op);
  } else if (seconds_per_op >= 1e-3) {
    std::snprintf(buf, n, "%.3f ms", seconds_per_op * 1e3);
  } else if (seconds_per_op >= 1e-6) {
    std::snprintf(buf, n, "%.3f us", seconds_per_op * 1e6);
  } else {
    std::snprintf(buf, n, "%.1f ns", seconds_per_op * 1e9);
  }
}

}  // namespace detail

/// Runs every registered case whose display name contains `filter` (null
/// or empty = all), printing one row per (case, arg-set). Returns 0, or 1
/// when a filter matched nothing (a typo'd filter should not silently
/// pass in CI).
inline int run_registered_benchmarks(const char* filter = nullptr) {
  std::printf("%-44s %12s %12s %16s\n", "benchmark", "iterations",
              "time/op", "throughput");
  std::printf("%.*s\n", 88,
              "----------------------------------------------------------------"
              "------------------------");
  std::size_t matched = 0;
  for (const Registration& reg : registry()) {
    static const std::vector<std::int64_t> kNoArgs;
    const auto& sets = reg.arg_sets();
    const std::size_t num_sets = sets.empty() ? 1 : sets.size();
    for (std::size_t si = 0; si < num_sets; ++si) {
      const auto& args = sets.empty() ? kNoArgs : sets[si];
      const std::string display = detail::case_display_name(reg, args);
      if (filter != nullptr && filter[0] != '\0' &&
          display.find(filter) == std::string::npos) {
        continue;
      }
      ++matched;
      // Calibrate: grow the iteration count geometrically until one
      // repetition clears the case's time floor.
      std::size_t iters = 1;
      double t = detail::run_repetition(reg, args, iters);
      while (t < reg.min_time() && iters < (std::size_t{1} << 30)) {
        const double scale =
            t > 0.0 ? std::min(10.0, 1.2 * reg.min_time() / t) : 10.0;
        iters = std::max(iters + 1,
                         static_cast<std::size_t>(
                             static_cast<double>(iters) * scale));
        t = detail::run_repetition(reg, args, iters);
      }
      // Timed repetitions: report the best.
      State best_state(0, {});
      double best = 0.0;
      for (int trial = 0; trial < reg.trials(); ++trial) {
        State last(0, {});
        const double cur = detail::run_repetition(reg, args, iters, &last);
        if (trial == 0 || cur < best) {
          best = cur;
          best_state = std::move(last);
        }
      }
      const double per_op = best / static_cast<double>(iters);
      char time_buf[32];
      detail::format_time(per_op, time_buf, sizeof(time_buf));
      char rate_buf[32] = "";
      const std::int64_t items = best_state.items_processed();
      if (items > 0 && best > 0.0) {
        std::snprintf(rate_buf, sizeof(rate_buf), "%.2fM items/s",
                      static_cast<double>(items) / best / 1e6);
      }
      std::printf("%-44s %12zu %12s %16s", display.c_str(), iters, time_buf,
                  rate_buf);
      if (!best_state.label().empty()) {
        std::printf("  %s", best_state.label().c_str());
      }
      std::printf("\n");
    }
  }
  if (matched == 0) {
    std::fprintf(stderr, "no benchmark matches filter '%s'\n",
                 filter == nullptr ? "" : filter);
    return 1;
  }
  return 0;
}

}  // namespace avcp::bench
