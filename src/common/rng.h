// Deterministic random number generation.
//
// All stochastic components of the library (trace generation, the
// probabilistic sharing ratio in the data plane, agent revision protocols)
// draw from avcp::Rng so that every experiment is reproducible from a single
// 64-bit seed. The engine is xoshiro256++, seeded through splitmix64 as its
// authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace avcp {

class Serializer;
class Deserializer;

/// splitmix64 step; used for seed expansion and as a cheap hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Pure-hash derivation of an independent stream seed from a base seed and
/// an index path (e.g. {tag, round, region}). Each coordinate is folded
/// through a full splitmix64 avalanche, so the result depends on position as
/// well as value, and no engine state is involved — the same idiom as
/// faults::FaultModel's predicates. The round engines use it to give every
/// (round, region) its own counter-based stream, making their decisions
/// independent of region iteration order and thread count.
std::uint64_t derive_seed(std::uint64_t seed,
                          std::initializer_list<std::uint64_t> path) noexcept;

/// xoshiro256++ pseudo-random engine. Satisfies UniformRandomBitGenerator,
/// so it can also drive <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs the engine from a single seed (expanded via splitmix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p: false for p <= 0 and true
  /// for p >= 1, with no draw; otherwise one draw, uniform() < p. A NaN p
  /// falls through to that compare, so it spends one draw and returns
  /// false. The one-shot form, for callers whose p changes from call to
  /// call; a loop over one fixed p uses BernoulliSampler.
  bool bernoulli(double p) noexcept;

  /// Standard normal sample (Box-Muller, cached second value).
  double normal() noexcept;

  /// Normal sample with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd) noexcept;

  /// Exponential sample with the given rate (> 0).
  double exponential(double rate) noexcept;

  /// Binomial sample: number of successes in n independent Bernoulli(p)
  /// trials; BinomialSampler(n, p)(*this). p is clamped to [0, 1] and must
  /// not be NaN (ContractViolation).
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to weights[i]: WeightedIndexSampler(weights)(*this). Weights must be
  /// non-negative with a positive sum (ContractViolation).
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child engine; used to give each simulated
  /// vehicle / region its own stream without cross-coupling.
  Rng split() noexcept;

  /// Checkpoint hooks: the full stream position (xoshiro state plus the
  /// Box-Muller cache), so a restored engine continues bit-identically.
  void save_state(Serializer& s) const;
  void load_state(Deserializer& d);

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Bernoulli(p) with its set-up done once: every decision is the one
/// Rng::bernoulli(p) would make, from the same draw, as one integer compare.
/// uniform() is (next >> 11) · 2⁻⁵³ with next the raw draw, and both that
/// product and p · 2⁵³ are exact, so uniform() < p holds exactly when
/// (next >> 11) < ⌈p · 2⁵³⌉. p <= 0 never succeeds and p >= 1 always
/// does, with no draw either way; a NaN p is a contract violation. Scene
/// synthesis and the exact data-plane kernels keep one sampler per fixed p
/// and add its result to a write cursor instead of branching on it.
class BernoulliSampler {
 public:
  explicit BernoulliSampler(double p);

  /// One decision (one draw from `rng` unless p <= 0 or p >= 1). Inline,
  /// so the compare folds into the caller's loop in every build.
  bool operator()(Rng& rng) const noexcept {
    if (!draws_) return always_;
    return (rng() >> 11) < threshold_;
  }

 private:
  /// ⌈p · 2⁵³⌉ for p in (0, 1): 1 ..= 2⁵³.
  std::uint64_t threshold_ = 0;
  bool draws_ = false;
  /// The answer when no draw is made: p >= 1.
  bool always_ = false;
};

/// Weighted index draws with their set-up done once: every draw is the one
/// Rng::weighted_index(weights) would make, from the same single uniform()
/// draw. The constructor checks each weight (>= 0, so not NaN) and sums them
/// in index order; a draw scales uniform() by that total and subtracts the
/// weights in index order until the remainder falls below zero. The sampler
/// keeps a view of `weights`, which must outlive it and not change. The
/// trace generator draws thousands of trip destinations from one sampler
/// over the intersections' attraction weights.
class WeightedIndexSampler {
 public:
  explicit WeightedIndexSampler(std::span<const double> weights);

  /// One index in [0, weights.size()), from one draw of `rng`.
  std::size_t operator()(Rng& rng) const noexcept;

 private:
  std::span<const double> weights_;
  double total_ = 0.0;
  /// The last index with a positive weight: the answer when rounding
  /// leaves the remainder non-negative after every subtraction.
  std::size_t last_positive_ = 0;
};

/// Binomial(n, p) with its set-up done once: every draw is the one
/// Rng::binomial(n, p) would make, from the same operands in the same
/// order. Exact (not a normal approximation): CDF inversion (BINV) when
/// n·p < 10, Hormann's BTRS transformed rejection otherwise, with p > 1/2
/// reduced by symmetry. p is clamped to [0, 1]; a NaN p is a contract
/// violation. The class-aggregated data-plane kernel keeps one sampler per
/// sender class and round, and draws one Binomial per (receiver, readable
/// class) from it.
class BinomialSampler {
 public:
  BinomialSampler(std::uint64_t n, double p);

  /// One draw from `rng` (none for n = 0, p <= 0 or p >= 1).
  std::uint64_t operator()(Rng& rng) const noexcept;

 private:
  /// kZero draws nothing and gives k = 0 (n = 0, p <= 0, and p >= 1 once
  /// reflected to n); the other two draw k for min(p, 1 - p).
  enum class Path : std::uint8_t { kZero, kInversion, kBtrs };

  std::uint64_t inversion(Rng& rng) const noexcept;
  std::uint64_t btrs(Rng& rng) const noexcept;

  std::uint64_t n_ = 0;
  Path path_ = Path::kZero;
  /// p > 1/2: k is drawn for 1 - p, and the draw returns n - k.
  bool reflect_ = false;
  double nd_ = 0.0;  // n as a double
  /// Inversion: q^n, p/q and (n + 1)·p/q.
  double r0_ = 0.0;
  double s_ = 0.0;
  double a_ = 0.0;
  /// BTRS: its constants b, a (in a_), c, v_r and alpha, log(p/q), the
  /// mode m and h = lgamma(m + 1) + lgamma(n - m + 1).
  double b_ = 0.0;
  double c_ = 0.0;
  double v_r_ = 0.0;
  double alpha_ = 0.0;
  double lpq_ = 0.0;
  double m_ = 0.0;
  double h_ = 0.0;
};

}  // namespace avcp
