// Deterministic, fast pseudo-random number generation for the whole project.
//
// Every stochastic component (samplers, workload generators, replay jitter)
// draws from an explicitly seeded Rng so that experiments and tests are
// reproducible bit-for-bit across runs. The core generator is xoshiro256**
// (Blackman & Vigna), seeded through splitmix64; both are tiny, extremely
// fast, and pass BigCrush — well suited for sampling workloads where the RNG
// is on the per-item hot path.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace streamapprox {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state and to
/// derive independent child seeds (see Rng::fork).
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Not thread-safe: each thread/worker owns its own Rng (use fork() to derive
/// statistically independent child generators deterministically).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Two Rng constructed with the same seed produce the
  /// same sequence.
  explicit Rng(std::uint64_t seed = 0x5eed5a11ULL) noexcept { reseed(seed); }

  /// Re-initialises the state from a 64-bit seed via splitmix64 expansion.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent child generator; deterministic in (parent seed,
  /// sequence of fork calls). Useful for giving each sub-stream / worker its
  /// own stream of randomness.
  Rng fork() noexcept { return Rng{next()}; }

  /// Raw 64 random bits.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> distributions).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection-free
  /// mapping (bias is negligible for n << 2^64, which always holds here).
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Box–Muller (cached second variate).
  double gaussian() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
  }

  /// Poisson-distributed count. Knuth's method for small lambda, normal
  /// approximation (rounded, clamped at 0) for large lambda — the same regime
  /// split production libraries use; for the paper's lambda=1e8 sub-stream the
  /// approximation is indistinguishable statistically.
  std::uint64_t poisson(double lambda) noexcept {
    if (lambda <= 0.0) return 0;
    if (lambda < 64.0) {
      const double limit = std::exp(-lambda);
      double product = uniform();
      std::uint64_t count = 0;
      while (product > limit) {
        ++count;
        product *= uniform();
      }
      return count;
    }
    const double value = gaussian(lambda, std::sqrt(lambda));
    return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value + 0.5);
  }

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(gaussian(mu, sigma));
  }

  /// Gamma(shape k, scale theta) via Marsaglia–Tsang; k < 1 handled by the
  /// standard boosting trick.
  double gamma(double shape, double scale) noexcept {
    if (shape < 1.0) {
      const double u = uniform();
      return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = 0.0;
      double v = 0.0;
      do {
        x = gaussian();
        v = 1.0 + c * x;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v * scale;
      }
    }
  }

  /// Zipf-distributed integer in [0, n) with exponent s (s=0 → uniform).
  /// Uses inverse-CDF over precomputed-free rejection (Jain's approximation);
  /// fine for workload skew modelling.
  std::uint64_t zipf(std::uint64_t n, double s) noexcept {
    if (n <= 1) return 0;
    if (s <= 0.0) return uniform_int(n);
    const double nd = static_cast<double>(n);
    if (std::abs(1.0 - s) < 1e-6) {
      // s = 1 is a singularity of the general inversion below (1/(1-s)
      // blows up; x degenerates to 1 and every draw collapsed to stratum
      // 0). The s → 1 limit of the same inversion is k = ⌊(n+1)^u⌋, i.e.
      // P(k) = ln((k+1)/k)/ln(n+1) ∝ 1/k — the harmonic Zipf law — and it
      // is continuous with the neighbouring exponents.
      for (;;) {
        const double u = uniform();
        const double k = std::floor(std::pow(nd + 1.0, u));
        if (k >= 1.0 && k <= nd) return static_cast<std::uint64_t>(k) - 1;
      }
    }
    // Rejection-inversion (Hormann & Derflinger) simplified: acceptable for
    // workload generation (not on estimation-critical paths).
    for (;;) {
      const double u = uniform();
      const double x = std::pow(nd + 1.0, 1.0 - s) * u + (1.0 - u);
      const double k = std::floor(std::pow(x, 1.0 / (1.0 - s)));
      if (k >= 1.0 && k <= nd) return static_cast<std::uint64_t>(k) - 1;
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace streamapprox
