// Tests for the §7-II stratification of unlabeled streams: quantile
// (bootstrap) and online-k-means stratifiers, and the end-to-end claim that
// learned strata restore OASRS's accuracy advantage when source labels are
// unavailable.
#include "stratify/stratifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "common/rng.h"
#include "common/stats.h"
#include "sampling/oasrs.h"
#include "sampling/scasrs.h"

namespace streamapprox::stratify {
namespace {

using engine::Record;

/// An exponential draw with the given rate (mean 1/rate), by inversion.
double exponential(streamapprox::Rng& rng, double rate) {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

// A 3-component mixture whose components are well separated in value but
// carry NO source labels (stratum deliberately 0 everywhere).
std::vector<Record> unlabeled_mixture(std::size_t n, std::uint64_t seed) {
  streamapprox::Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    double value = 0.0;
    if (u < 0.70) {
      value = rng.gaussian(10.0, 2.0);
    } else if (u < 0.95) {
      value = rng.gaussian(100.0, 10.0);
    } else {
      value = rng.gaussian(1000.0, 50.0);
    }
    records.push_back(Record{0, value, 0});
  }
  return records;
}

TEST(QuantileStratifier, BootstrapsThenBins) {
  // 4000 bootstrap samples: the quantile estimates' standard error is ~0.7,
  // so a +/-4 tolerance is ~5 sigma.
  QuantileStratifier stratifier(4, 4000);
  EXPECT_FALSE(stratifier.bootstrapped());
  streamapprox::Rng rng(1);
  for (int i = 0; i < 4000; ++i) stratifier.assign(rng.uniform(0.0, 100.0));
  EXPECT_TRUE(stratifier.bootstrapped());
  ASSERT_EQ(stratifier.boundaries().size(), 3u);
  // Quantile cuts of U(0,100) at 25/50/75.
  EXPECT_NEAR(stratifier.boundaries()[0], 25.0, 4.0);
  EXPECT_NEAR(stratifier.boundaries()[1], 50.0, 4.0);
  EXPECT_NEAR(stratifier.boundaries()[2], 75.0, 4.0);
  EXPECT_EQ(stratifier.assign(1.0), 0u);
  EXPECT_EQ(stratifier.assign(99.0), 3u);
}

TEST(QuantileStratifier, BinsAreMonotoneInValue) {
  QuantileStratifier stratifier(5, 200);
  streamapprox::Rng rng(2);
  for (int i = 0; i < 200; ++i) stratifier.assign(rng.gaussian(0.0, 1.0));
  sampling::StratumId last = 0;
  for (double v = -3.0; v <= 3.0; v += 0.1) {
    const auto id = stratifier.assign(v);
    EXPECT_GE(id, last);
    last = id;
  }
  EXPECT_EQ(last, 4u);
}

TEST(QuantileStratifier, BalancedOccupancyOnStationaryInput) {
  QuantileStratifier stratifier(4, 8000);
  streamapprox::Rng rng(3);
  for (int i = 0; i < 8000; ++i) stratifier.assign(exponential(rng, 1.0));
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[stratifier.assign(exponential(rng, 1.0))];
  }
  // Occupancy error is dominated by the bootstrap quantile noise (~1%
  // with 8000 samples); 10000 +/- 800 is a multi-sigma band.
  for (int c : counts) EXPECT_NEAR(c, 10000, 800);
}

TEST(QuantileStratifier, DegenerateSingleStratum) {
  QuantileStratifier stratifier(1, 10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(stratifier.assign(static_cast<double>(i)), 0u);
  }
}

TEST(KMeansStratifier, SeedsWithDistinctValues) {
  KMeansStratifier stratifier(3);
  EXPECT_EQ(stratifier.assign(1.0), 0u);
  EXPECT_EQ(stratifier.assign(1.0), 0u);  // duplicate: assigned, not seeded
  EXPECT_EQ(stratifier.assign(100.0), 1u);
  EXPECT_EQ(stratifier.assign(1000.0), 2u);
  EXPECT_EQ(stratifier.centroids().size(), 3u);
}

TEST(KMeansStratifier, RecoversWellSeparatedClusters) {
  KMeansStratifier stratifier(3);
  const auto records = unlabeled_mixture(50000, 4);
  std::unordered_map<sampling::StratumId, streamapprox::RunningStats> groups;
  for (const auto& record : records) {
    groups[stratifier.assign(record.value)].add(record.value);
  }
  ASSERT_EQ(groups.size(), 3u);
  // Each learned group should be tight around one of the true means.
  std::vector<double> means;
  for (auto& [id, stats] : groups) means.push_back(stats.mean());
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 10.0, 5.0);
  EXPECT_NEAR(means[1], 100.0, 20.0);
  EXPECT_NEAR(means[2], 1000.0, 100.0);
}

TEST(KMeansStratifier, CentroidsTrackDrift) {
  KMeansStratifier stratifier(2);
  streamapprox::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    stratifier.assign(rng.gaussian(0.0, 1.0));
    stratifier.assign(rng.gaussian(50.0, 1.0));
  }
  // Drift the upper cluster to 80.
  for (int i = 0; i < 20000; ++i) {
    stratifier.assign(rng.gaussian(0.0, 1.0));
    stratifier.assign(rng.gaussian(80.0, 1.0));
  }
  auto centroids = stratifier.centroids();
  std::sort(centroids.begin(), centroids.end());
  EXPECT_NEAR(centroids[0], 0.0, 3.0);
  EXPECT_GT(centroids[1], 65.0);  // moved toward 80 (MacQueen rate slows)
}

TEST(Restratify, PreservesValueReplacesStratum) {
  KMeansStratifier stratifier(2);
  const Record record{42, 7.5, 123};
  const auto out = restratify(record, stratifier);
  EXPECT_EQ(out.value, 7.5);
  EXPECT_EQ(out.event_time_us, 123);
  EXPECT_LT(out.stratum, 2u);
}

// The end-to-end claim: on unlabeled long-tail data, OASRS over LEARNED
// strata approximates the mean far better than SRS at the same budget —
// i.e. the §7 pre-processing step restores the paper's §5.7 result.
TEST(StratifiedByLearning, BeatsSrsOnUnlabeledLongTail) {
  double learned_err = 0.0;
  double srs_err = 0.0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const auto records = unlabeled_mixture(60000, 100 + t);
    double exact = 0.0;
    for (const auto& record : records) exact += record.value;
    exact /= static_cast<double>(records.size());

    // OASRS at 5% budget over k-means strata.
    KMeansStratifier stratifier(3);
    sampling::OasrsConfig config;
    config.total_budget = records.size() / 20;
    config.seed = 200 + t;
    auto sampler = sampling::make_oasrs<Record>(config);
    for (const auto& record : records) {
      sampler.offer(restratify(record, stratifier));
    }
    const auto sample = sampler.take();
    double sum = 0.0;
    double count = 0.0;
    for (const auto& stratum : sample.strata) {
      double stratum_sum = 0.0;
      for (const auto& record : stratum.items) stratum_sum += record.value;
      sum += stratum_sum * stratum.weight;
      count += static_cast<double>(stratum.seen);
    }
    learned_err += streamapprox::relative_error(sum / count, exact);

    // SRS at the same 5%.
    streamapprox::Rng rng(300 + t);
    const auto srs = sampling::scasrs_sample(records, 0.05, rng);
    double srs_mean = 0.0;
    for (const auto& record : srs.items) srs_mean += record.value;
    srs_mean /= static_cast<double>(srs.items.size());
    srs_err += streamapprox::relative_error(srs_mean, exact);
  }
  EXPECT_LT(learned_err / kTrials, srs_err / kTrials);
  EXPECT_LT(learned_err / kTrials, 0.01);
}

}  // namespace
}  // namespace streamapprox::stratify
