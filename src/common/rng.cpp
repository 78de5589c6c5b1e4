#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/contracts.h"
#include "common/serial.h"

namespace avcp {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(
    std::uint64_t seed, std::initializer_list<std::uint64_t> path) noexcept {
  std::uint64_t acc = seed;
  for (const std::uint64_t x : path) {
    acc ^= x;
    std::uint64_t state = acc;
    acc = splitmix64(state);
  }
  return acc;
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire's unbiased bounded sampling.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

BernoulliSampler::BernoulliSampler(double p) {
  AVCP_EXPECT(!std::isnan(p));
  if (p <= 0.0) return;
  always_ = p >= 1.0;
  if (always_) return;
  draws_ = true;
  threshold_ = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sd) noexcept {
  return mean + sd * normal();
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

namespace {

#if defined(__GLIBC__) || defined(__APPLE__)
extern "C" double lgamma_r(double, int*);  // not declared under -std=c++20
#endif

/// glibc's lgamma writes the process-global `signgam`, a data race when the
/// parallel round engines sample binomials concurrently (caught by TSan).
/// Route through the reentrant lgamma_r where available; it computes the
/// identical value without the global side channel.
double lgamma_threadsafe(double x) noexcept {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

BinomialSampler::BinomialSampler(std::uint64_t n, double p) : n_(n) {
  AVCP_EXPECT(!std::isnan(p));
  if (n == 0 || p <= 0.0) return;
  reflect_ = p > 0.5;
  if (p >= 1.0) return;
  if (reflect_) p = 1.0 - p;
  nd_ = static_cast<double>(n);
  const double q = 1.0 - p;
  if (nd_ * p < 10.0) {
    path_ = Path::kInversion;
    s_ = p / q;
    a_ = static_cast<double>(n + 1) * s_;
    r0_ = std::pow(q, nd_);
    return;
  }
  path_ = Path::kBtrs;
  const double spq = std::sqrt(nd_ * p * q);
  b_ = 1.15 + 2.53 * spq;
  a_ = -0.0873 + 0.0248 * b_ + 0.01 * p;
  c_ = nd_ * p + 0.5;
  v_r_ = 0.92 - 4.2 / b_;
  alpha_ = (2.83 + 5.1 / b_) * spq;
  lpq_ = std::log(p / q);
  m_ = std::floor((nd_ + 1.0) * p);
  h_ = lgamma_threadsafe(m_ + 1.0) + lgamma_threadsafe(nd_ - m_ + 1.0);
}

std::uint64_t BinomialSampler::operator()(Rng& rng) const noexcept {
  std::uint64_t k = 0;
  if (path_ == Path::kInversion) {
    k = inversion(rng);
  } else if (path_ == Path::kBtrs) {
    k = btrs(rng);
  }
  return reflect_ ? n_ - k : k;
}

/// CDF inversion (Kachitvichyanukul & Schmeiser's BINV): walks the
/// probability recurrence from k = 0. Expected cost O(n * p); used when
/// n * p is small enough that the walk beats rejection.
std::uint64_t BinomialSampler::inversion(Rng& rng) const noexcept {
  const std::uint64_t n = n_;
  const double s = s_;
  const double a = a_;
  double r = r0_;
  double u = rng.uniform();
  std::uint64_t k = 0;
  while (u > r) {
    u -= r;
    ++k;
    if (k > n) return n;  // floating-point tail guard
    r *= a / static_cast<double>(k) - s;
  }
  return k;
}

/// Hormann's BTRS transformed-rejection sampler (1993), the standard exact
/// binomial for n * p >= 10 (same algorithm family as NumPy / TensorFlow).
std::uint64_t BinomialSampler::btrs(Rng& rng) const noexcept {
  const double nd = nd_;
  const double a = a_;
  const double b = b_;
  const double c = c_;
  const double m = m_;
  for (;;) {
    const double u = rng.uniform() - 0.5;
    double v = rng.uniform();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r_) return static_cast<std::uint64_t>(kd);
    v = std::log(v * alpha_ / (a / (us * us) + b));
    if (v <= h_ - lgamma_threadsafe(kd + 1.0) -
                 lgamma_threadsafe(nd - kd + 1.0) + (kd - m) * lpq_) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  return BinomialSampler(n, p)(*this);
}

WeightedIndexSampler::WeightedIndexSampler(std::span<const double> weights)
    : weights_(weights) {
  AVCP_EXPECT(!weights.empty());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    AVCP_EXPECT(weights[i] >= 0.0);
    total_ += weights[i];
    if (weights[i] > 0.0) last_positive_ = i;
  }
  AVCP_EXPECT(total_ > 0.0);
}

std::size_t WeightedIndexSampler::operator()(Rng& rng) const noexcept {
  double target = rng.uniform() * total_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    target -= weights_[i];
    if (target < 0.0) return i;
  }
  // Floating point slack: fall back to the last positive weight.
  return last_positive_;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  return WeightedIndexSampler(weights)(*this);
}

Rng Rng::split() noexcept {
  return Rng((*this)());
}

void Rng::save_state(Serializer& s) const {
  for (const std::uint64_t word : state_) s.put_u64(word);
  s.put_f64(cached_normal_);
  s.put_bool(has_cached_normal_);
}

void Rng::load_state(Deserializer& d) {
  for (std::uint64_t& word : state_) word = d.get_u64();
  cached_normal_ = d.get_f64();
  has_cached_normal_ = d.get_bool();
}

}  // namespace avcp
