// Tests for approximate HISTOGRAM queries: the weighted sample histogram
// must statistically recreate the population histogram, including through
// the StreamApprox facade.
#include "estimation/histogram_query.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/stream_approx.h"
#include "engine/record.h"
#include "ingest/replay.h"
#include "sampling/oasrs.h"
#include "workload/synthetic.h"

namespace streamapprox::estimation {
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

TEST(WeightedHistogram, EmptySample) {
  sampling::StratifiedSample<Record> sample;
  const auto histogram = weighted_histogram(
      sample, engine::RecordValue{}, HistogramSpec{0.0, 10.0, 5});
  EXPECT_EQ(histogram.total(), 0.0);
}

TEST(WeightedHistogram, AppliesStratumWeights) {
  sampling::StratifiedSample<Record> sample;
  sampling::StratumSample<Record> a;
  a.stratum = 0;
  a.seen = 100;
  a.weight = 50.0;
  a.items = {Record{0, 1.0, 0}, Record{0, 2.0, 0}};
  sampling::StratumSample<Record> b;
  b.stratum = 1;
  b.seen = 3;
  b.weight = 1.0;
  b.items = {Record{1, 8.0, 0}};
  sample.strata = {a, b};

  const auto histogram = weighted_histogram(
      sample, engine::RecordValue{}, HistogramSpec{0.0, 10.0, 10});
  EXPECT_DOUBLE_EQ(histogram.bucket(1), 50.0);  // value 1.0
  EXPECT_DOUBLE_EQ(histogram.bucket(2), 50.0);  // value 2.0
  EXPECT_DOUBLE_EQ(histogram.bucket(8), 1.0);   // value 8.0
  EXPECT_DOUBLE_EQ(histogram.total(), 101.0);
}

TEST(WeightedHistogram, RecreatesPopulationShapeThroughOasrs) {
  // 100k Gaussian values sampled at ~5% should reproduce the population
  // histogram within a few percent L1 distance.
  streamapprox::Rng rng(21);
  Histogram exact(0.0, 100.0, 25);
  sampling::OasrsConfig config;
  config.total_budget = 5000;
  config.seed = 22;
  auto sampler = sampling::make_oasrs<Record>(config);
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.gaussian(50.0, 12.0);
    exact.add(v);
    sampler.offer(Record{static_cast<sampling::StratumId>(i % 3), v, 0});
  }
  const auto approx = weighted_histogram(
      sampler.take(), engine::RecordValue{}, HistogramSpec{0.0, 100.0, 25});
  EXPECT_LT(exact.l1_distance(approx), 0.06);
  EXPECT_NEAR(approx.total(), exact.total(), exact.total() * 0.02);
}

TEST(WeightedHistogram, FacadeDeliversWindowHistograms) {
  workload::SyntheticStream stream(
      {{0, workload::Gaussian{50.0, 10.0}, 20000.0},
       {1, workload::Gaussian{20.0, 5.0}, 20000.0}},
      23);
  const auto records = stream.generate(4.0);

  ingest::Broker broker;
  broker.create_topic("hist", 2);
  ingest::ReplayTool replay(broker, "hist", records, {});

  core::StreamApproxConfig config;
  config.topic = "hist";
  config.queries.aggregate("query", {core::Aggregation::kMean, false});
  config.queries.histogram("histogram", {0.0, 100.0, 20});
  config.budget = QueryBudget::fraction(0.2);
  config.window = {1'000'000, 500'000};

  core::StreamApprox system(broker, config);
  std::size_t with_histogram = 0;
  std::size_t windows = 0;
  system.run([&](const core::WindowOutput& output) {
    ++windows;
    ASSERT_EQ(output.queries.size(), 2u);
    const auto& histogram = output.queries[1].histogram;
    if (!histogram) return;
    ++with_histogram;
    // Bimodal input: mass near 20 and near 50, nothing near 80.
    const auto& h = *histogram;
    EXPECT_GT(h.total(), 0.0);
    const double near20 = h.bucket(4);   // [20,25)
    const double near80 = h.bucket(16);  // [80,85)
    EXPECT_GT(near20, 10.0 * (near80 + 1.0));
    // Total mass estimates the window population (seen records).
    EXPECT_NEAR(h.total(), static_cast<double>(output.records_seen),
                0.05 * static_cast<double>(output.records_seen));
  });
  replay.wait();
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(with_histogram, windows);
}

TEST(WeightedHistogram, QuantilesFromWeightedSampleMatchPopulation) {
  streamapprox::Rng rng(29);
  Histogram exact(0.0, 200.0, 50);
  sampling::OasrsConfig config;
  config.total_budget = 4000;
  config.seed = 30;
  auto sampler = sampling::make_oasrs<Record>(config);
  for (int i = 0; i < 80000; ++i) {
    const double v = exponential(rng, 0.02);  // mean 50, skewed
    exact.add(v);
    sampler.offer(Record{0, v, 0});
  }
  const auto approx = weighted_histogram(
      sampler.take(), engine::RecordValue{}, HistogramSpec{0.0, 200.0, 50});
  EXPECT_NEAR(approx.quantile(0.5), exact.quantile(0.5), 4.0);
  EXPECT_NEAR(approx.quantile(0.9), exact.quantile(0.9), 10.0);
}

}  // namespace
}  // namespace streamapprox::estimation
