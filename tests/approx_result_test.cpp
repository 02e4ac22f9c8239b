// Tests for ApproxResult interval arithmetic and the 68-95-99.7 rule (paper
// §3.3) that the stratified SUM's interval must honour.
#include "estimation/approx_result.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "estimation/estimators.h"

namespace streamapprox::estimation {
namespace {

/// An exponential draw with the given rate (mean 1/rate), by inversion.
double exponential(streamapprox::Rng& rng, double rate) {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

TEST(ApproxResult, IntervalArithmetic) {
  ApproxResult result;
  result.estimate = 100.0;
  result.variance = 25.0;  // stddev 5
  EXPECT_DOUBLE_EQ(result.stddev(), 5.0);
  EXPECT_DOUBLE_EQ(result.error_bound(2.0), 10.0);
  EXPECT_DOUBLE_EQ(result.relative_bound(2.0), 0.1);
  const auto ci = result.interval(2.0);
  EXPECT_DOUBLE_EQ(ci.lo, 90.0);
  EXPECT_DOUBLE_EQ(ci.hi, 110.0);
  EXPECT_TRUE(ci.contains(100.0));
  EXPECT_TRUE(ci.contains(90.0));
  EXPECT_FALSE(ci.contains(89.999));
  EXPECT_DOUBLE_EQ(ci.width(), 20.0);
}

TEST(ApproxResult, ZeroEstimateRelativeBound) {
  ApproxResult result;
  result.estimate = 0.0;
  result.variance = 4.0;
  EXPECT_EQ(result.relative_bound(), 0.0);
}

TEST(ApproxResult, ToStringMentionsBound) {
  ApproxResult result;
  result.estimate = 10.0;
  result.variance = 1.0;
  const auto text = result.to_string(2.0);
  EXPECT_NE(text.find("10"), std::string::npos);
  EXPECT_NE(text.find("+/-"), std::string::npos);
}

// The "68-95-99.7" property end-to-end (paper §3.3): the true SUM must fall
// inside the z-sigma interval with roughly the advertised frequency.
TEST(CoverageProperty, SixtyEightNinetyFive) {
  streamapprox::Rng rng(1);
  std::vector<double> population;
  double exact = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = exponential(rng, 0.1);  // skewed on purpose
    population.push_back(v);
    exact += v;
  }
  constexpr std::size_t kSample = 500;
  int cover1 = 0;
  int cover2 = 0;
  int cover3 = 0;
  constexpr int kTrials = 600;
  for (int t = 0; t < kTrials; ++t) {
    StratumSummary summary;
    summary.stratum = 0;
    summary.seen = population.size();
    // Sample without replacement.
    std::vector<std::size_t> index(population.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
    for (std::size_t i = 0; i < kSample; ++i) {
      const auto j = i + rng.uniform_int(index.size() - i);
      std::swap(index[i], index[j]);
      const double v = population[index[i]];
      summary.sum += v;
      summary.sum_sq += v * v;
    }
    summary.sampled = kSample;
    summary.weight = static_cast<double>(summary.seen) / kSample;
    const auto result = estimate_sum({summary});
    if (result.interval(1.0).contains(exact)) ++cover1;
    if (result.interval(2.0).contains(exact)) ++cover2;
    if (result.interval(3.0).contains(exact)) ++cover3;
  }
  EXPECT_NEAR(cover1 / static_cast<double>(kTrials), 0.68, 0.07);
  EXPECT_NEAR(cover2 / static_cast<double>(kTrials), 0.95, 0.04);
  EXPECT_GE(cover3 / static_cast<double>(kTrials), 0.985);
}

}  // namespace
}  // namespace streamapprox::estimation
