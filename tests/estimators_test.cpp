// Tests for the stratified estimators: Eq. 2-9 point estimates and variance
// formulas against hand-computed values and Monte-Carlo coverage.
#include "estimation/estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/record.h"
#include "sampling/oasrs.h"

namespace streamapprox::estimation {
namespace {

using streamapprox::engine::Record;

StratumSummary make_summary(sampling::StratumId stratum, std::uint64_t seen,
                            std::vector<double> values) {
  StratumSummary s;
  s.stratum = stratum;
  s.seen = seen;
  s.sampled = values.size();
  for (double v : values) {
    s.sum += v;
    s.sum_sq += v * v;
  }
  s.weight = (s.sampled > 0 && seen > s.sampled)
                 ? static_cast<double>(seen) / static_cast<double>(s.sampled)
                 : 1.0;
  return s;
}

TEST(StratumSummary, MeanAndVariance) {
  const auto s = make_summary(0, 100, {2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_NEAR(s.sample_variance(), 4.0, 1e-9);  // s^2 of {2,4,6}
}

TEST(StratumSummary, DegenerateVariance) {
  EXPECT_EQ(make_summary(0, 10, {}).sample_variance(), 0.0);
  EXPECT_EQ(make_summary(0, 10, {5.0}).sample_variance(), 0.0);
  // Constant sample: zero variance despite count.
  EXPECT_NEAR(make_summary(0, 10, {3.0, 3.0, 3.0}).sample_variance(), 0.0,
              1e-12);
}

TEST(EstimateSum, PaperEquationTwoThree) {
  // Stratum 0: C=6, Y=3 items {1,2,3} => W=2, SUM_0 = 6*2 = 12.
  // Stratum 1: C=4, Y=3 items {10,10,10} => W=4/3, SUM_1 = 30*4/3 = 40.
  // Stratum 2: C=2 fully observed {5,5} => W=1, SUM_2 = 10.
  const std::vector<StratumSummary> strata = {
      make_summary(0, 6, {1.0, 2.0, 3.0}),
      make_summary(1, 4, {10.0, 10.0, 10.0}),
      make_summary(2, 2, {5.0, 5.0}),
  };
  const auto result = estimate_sum(strata);
  EXPECT_NEAR(result.estimate, 12.0 + 40.0 + 10.0, 1e-9);
  EXPECT_EQ(result.population, 12u);
  EXPECT_EQ(result.sample_size, 8u);
}

TEST(EstimateSum, VarianceEquationSix) {
  // Single stratum: C=100, Y=4, values {1,3,5,7}: s^2 = 20/3.
  // Var = C(C-Y) s^2/Y = 100*96*(20/3)/4 = 16000.
  const auto result = estimate_sum({make_summary(0, 100, {1, 3, 5, 7})});
  EXPECT_NEAR(result.variance, 16000.0, 1e-6);
  EXPECT_NEAR(result.stddev(), std::sqrt(16000.0), 1e-6);
}

TEST(EstimateSum, FullyObservedStrataHaveZeroVariance) {
  const auto result = estimate_sum({make_summary(0, 3, {1.0, 2.0, 3.0})});
  EXPECT_DOUBLE_EQ(result.variance, 0.0);
  EXPECT_DOUBLE_EQ(result.estimate, 6.0);
}

TEST(EstimateSum, EmptyInput) {
  const auto result = estimate_sum({});
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.variance, 0.0);
  EXPECT_EQ(result.population, 0u);
}

TEST(EstimateMean, PaperEquationFourEight) {
  // Stratum 0: C=80, mean 10; stratum 1: C=20, mean 100.
  // MEAN = 0.8*10 + 0.2*100 = 28.
  const std::vector<StratumSummary> strata = {
      make_summary(0, 80, {10.0, 10.0}),
      make_summary(1, 20, {100.0, 100.0}),
  };
  const auto result = estimate_mean(strata);
  EXPECT_NEAR(result.estimate, 28.0, 1e-9);
}

TEST(EstimateMean, VarianceEquationNine) {
  // One stratum C=100, Y=4, values {1,3,5,7}: omega=1,
  // Var = s^2/Y * (C-Y)/C = (20/3)/4 * 0.96 = 1.6.
  const auto result = estimate_mean({make_summary(0, 100, {1, 3, 5, 7})});
  EXPECT_NEAR(result.variance, 1.6, 1e-9);
}

TEST(EstimateMean, EmptyAndZeroPopulation) {
  EXPECT_EQ(estimate_mean({}).estimate, 0.0);
}

TEST(EstimateCount, MatchesPopulationWithEqOneWeights) {
  const std::vector<StratumSummary> strata = {
      make_summary(0, 1000, {1, 2, 3, 4}),   // W = 250
      make_summary(1, 3, {9.0, 9.0, 9.0}),   // W = 1
  };
  const auto result = estimate_count(strata);
  EXPECT_NEAR(result.estimate, 1003.0, 1e-9);
  EXPECT_EQ(result.population, 1003u);
}

// A per-group answer (evaluate_window's per-stratum SUM and MEAN) is the
// overall estimator over that group's cells alone.
TEST(EstimateStratumSum, SingleGroup) {
  const auto s = make_summary(3, 50, {2.0, 4.0});
  const auto result = estimate_sum({s});
  EXPECT_NEAR(result.estimate, 6.0 * 25.0, 1e-9);
  EXPECT_GT(result.variance, 0.0);
}

TEST(EstimateStratumMean, SingleGroup) {
  const auto s = make_summary(3, 50, {2.0, 4.0});
  const auto result = estimate_mean({s});
  EXPECT_DOUBLE_EQ(result.estimate, 3.0);
  // Var = s^2/Y*(C-Y)/C = 2/2 * 48/50 = 0.96.
  EXPECT_NEAR(result.variance, 0.96, 1e-9);
}

TEST(ExactCells, EveryValueIsSeenAndSampled) {
  ExactCells cells;
  cells.add(1, 2.0);
  cells.add(2, 5.0);
  cells.add(1, 4.0);
  auto out = cells.take();
  ASSERT_EQ(out.size(), 2u);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.stratum < b.stratum;
  });
  EXPECT_EQ(out[0].stratum, 1u);
  EXPECT_EQ(out[0].seen, 2u);
  EXPECT_EQ(out[0].sampled, 2u);
  EXPECT_DOUBLE_EQ(out[0].sum, 6.0);
  EXPECT_DOUBLE_EQ(out[0].sum_sq, 20.0);
  EXPECT_DOUBLE_EQ(out[0].weight, 1.0);
  EXPECT_EQ(out[1].stratum, 2u);
  EXPECT_EQ(out[1].seen, 1u);
  // Exact cells estimate exactly, with zero variance.
  const auto sum = estimate_sum(out);
  EXPECT_DOUBLE_EQ(sum.estimate, 11.0);
  EXPECT_EQ(sum.variance, 0.0);
  // take() empties the set for the next slide.
  EXPECT_TRUE(cells.take().empty());
}

TEST(Summarize, FromStratifiedSample) {
  sampling::StratifiedSample<Record> sample;
  sampling::StratumSample<Record> stratum;
  stratum.stratum = 4;
  stratum.seen = 10;
  stratum.weight = 5.0;
  stratum.items = {Record{4, 1.0, 0}, Record{4, 3.0, 0}};
  sample.strata.push_back(stratum);
  const auto summaries = summarize(
      sample, [](const Record& r) { return r.value; });
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].stratum, 4u);
  EXPECT_DOUBLE_EQ(summaries[0].sum, 4.0);
  EXPECT_DOUBLE_EQ(summaries[0].sum_sq, 10.0);
  EXPECT_DOUBLE_EQ(summaries[0].weight, 5.0);
}

// Monte-Carlo: the Eq. 6 variance estimate should match the empirical
// variance of the SUM estimator across many resamples.
TEST(EstimateSum, VarianceMatchesEmpirical) {
  streamapprox::Rng rng(99);
  std::vector<double> population;
  double exact = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.gaussian(50.0, 12.0);
    population.push_back(v);
    exact += v;
  }
  constexpr std::size_t kSample = 400;
  streamapprox::RunningStats estimates;
  double predicted_var = 0.0;
  for (int t = 0; t < 300; ++t) {
    // Draw a uniform sample of kSample items (without replacement via
    // partial Fisher-Yates over indices).
    std::vector<double> values;
    std::vector<std::size_t> index(population.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
    for (std::size_t i = 0; i < kSample; ++i) {
      const auto j = i + rng.uniform_int(index.size() - i);
      std::swap(index[i], index[j]);
      values.push_back(population[index[i]]);
    }
    const auto summary = make_summary(0, population.size(), values);
    const auto result = estimate_sum({summary});
    estimates.add(result.estimate);
    predicted_var += result.variance;
  }
  predicted_var /= 300.0;
  // Empirical variance of the estimator vs the Eq. 6 prediction: within 20%.
  EXPECT_NEAR(estimates.variance() / predicted_var, 1.0, 0.2);
  // And the estimator is unbiased.
  EXPECT_NEAR(estimates.mean(), exact, 4.0 * std::sqrt(predicted_var / 300));
}

}  // namespace
}  // namespace streamapprox::estimation
