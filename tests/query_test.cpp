// Tests for query evaluation, exact ground truth, and the accuracy-loss
// metric.
#include "core/query.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace streamapprox::core {
namespace {

using engine::Record;
using engine::WindowResult;
using estimation::StratumSummary;

StratumSummary cell(sampling::StratumId stratum, std::uint64_t seen,
                    std::uint64_t sampled, double sum, double weight) {
  StratumSummary s;
  s.stratum = stratum;
  s.seen = seen;
  s.sampled = sampled;
  s.sum = sum;
  s.weight = weight;
  return s;
}

WindowResult window_of(std::int64_t end, std::vector<StratumSummary> cells) {
  WindowResult w;
  w.window_start_us = end - 10;
  w.window_end_us = end;
  w.cells = std::move(cells);
  return w;
}

TEST(EvaluateWindows, OverallSum) {
  const auto windows = std::vector<WindowResult>{
      window_of(10, {cell(0, 10, 5, 50.0, 2.0), cell(1, 4, 4, 8.0, 1.0)}),
  };
  QuerySpec query{Aggregation::kSum, false};
  const auto estimates = evaluate_windows(windows, query);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(estimates[0].overall.estimate, 108.0);
  EXPECT_TRUE(estimates[0].groups.empty());
}

TEST(EvaluateWindows, PerStratumGroupsSortedById) {
  const auto windows = std::vector<WindowResult>{
      window_of(10, {cell(2, 4, 4, 8.0, 1.0), cell(0, 10, 5, 50.0, 2.0),
                     cell(0, 6, 3, 30.0, 2.0)}),
  };
  QuerySpec query{Aggregation::kSum, true};
  const auto estimates = evaluate_windows(windows, query);
  ASSERT_EQ(estimates[0].groups.size(), 2u);
  EXPECT_EQ(estimates[0].groups[0].first, 0u);
  // Two cells of stratum 0 combine: 50*2 + 30*2 = 160.
  EXPECT_DOUBLE_EQ(estimates[0].groups[0].second.estimate, 160.0);
  EXPECT_EQ(estimates[0].groups[1].first, 2u);
  EXPECT_DOUBLE_EQ(estimates[0].groups[1].second.estimate, 8.0);
}

TEST(EvaluateWindows, MeanUsesPopulationWeights) {
  const auto windows = std::vector<WindowResult>{
      window_of(10, {cell(0, 80, 2, 20.0, 40.0),    // mean 10, omega 0.8
                     cell(1, 20, 2, 200.0, 10.0)}), // mean 100, omega 0.2
  };
  QuerySpec query{Aggregation::kMean, false};
  const auto estimates = evaluate_windows(windows, query);
  EXPECT_NEAR(estimates[0].overall.estimate, 28.0, 1e-9);
}

TEST(ExactWindows, MatchDirectAggregation) {
  std::vector<Record> records;
  // 2 strata, 1s of data at 1ms spacing, values = stratum+1.
  for (int i = 0; i < 1000; ++i) {
    records.push_back({static_cast<sampling::StratumId>(i % 2),
                       static_cast<double>(i % 2 + 1),
                       static_cast<std::int64_t>(i) * 1000});
  }
  engine::WindowConfig window{200'000, 100'000};
  const auto windows = exact_window_results(records, window);
  ASSERT_GE(windows.size(), 9u);
  for (const auto& w : windows) {
    std::uint64_t seen = 0;
    double sum = 0.0;
    for (const auto& c : w.cells) {
      EXPECT_EQ(c.seen, c.sampled);  // exact
      EXPECT_DOUBLE_EQ(c.weight, 1.0);
      seen += c.seen;
      sum += c.sum;
    }
    EXPECT_EQ(seen, 200u);
    EXPECT_DOUBLE_EQ(sum, 300.0);  // 100*1 + 100*2
  }
}

TEST(ExactWindows, UnsortedInputMatchesSortedInput) {
  // Two strata appended one after the other over the same 3 s: 1000 records
  // of stratum 0 (one every 3 ms), then 2500 of stratum 1 (one every
  // 1.2 ms). 1 s tumbling windows hold 334 + 834, 333 + 833 and 333 + 833.
  std::vector<Record> records;
  for (int i = 0; i < 1000; ++i) {
    records.push_back({0, 1.0, static_cast<std::int64_t>(i) * 3000});
  }
  for (int i = 0; i < 2500; ++i) {
    records.push_back({1, 2.0, static_cast<std::int64_t>(i) * 1200});
  }
  const engine::WindowConfig window{1'000'000, 1'000'000};
  const auto windows = exact_window_results(records, window);
  ASSERT_EQ(windows.size(), 3u);
  const std::uint64_t expected[3][2] = {{334, 834}, {333, 833}, {333, 833}};
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].window_end_us,
              static_cast<std::int64_t>(w + 1) * 1'000'000);
    std::uint64_t seen[2] = {0, 0};
    for (const auto& c : windows[w].cells) seen[c.stratum] += c.seen;
    EXPECT_EQ(seen[0], expected[w][0]) << "window " << w;
    EXPECT_EQ(seen[1], expected[w][1]) << "window " << w;
  }

  // The same records in event-time order give the same windows.
  auto sorted = records;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Record& a, const Record& b) {
                     return a.event_time_us < b.event_time_us;
                   });
  const auto reference = exact_window_results(sorted, window);
  ASSERT_EQ(reference.size(), windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    QuerySpec sum{Aggregation::kSum, true};
    const auto a = evaluate_window(windows[w], sum);
    const auto b = evaluate_window(reference[w], sum);
    EXPECT_EQ(a.overall.estimate, b.overall.estimate) << "window " << w;
    EXPECT_EQ(a.groups.size(), b.groups.size()) << "window " << w;
  }
}

TEST(AccuracyLoss, ZeroForIdenticalEstimates) {
  const auto windows = std::vector<WindowResult>{
      window_of(10, {cell(0, 4, 4, 8.0, 1.0)}),
  };
  QuerySpec query{Aggregation::kSum, false};
  const auto estimates = evaluate_windows(windows, query);
  EXPECT_DOUBLE_EQ(mean_accuracy_loss(estimates, estimates, query), 0.0);
}

TEST(AccuracyLoss, MatchesHandComputedRelativeError) {
  QuerySpec query{Aggregation::kSum, false};
  const auto approx = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 110.0, 1.0)})}, query);
  const auto exact = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 100.0, 1.0)})}, query);
  EXPECT_NEAR(mean_accuracy_loss(approx, exact, query), 0.1, 1e-12);
}

TEST(AccuracyLoss, AveragesAcrossWindows) {
  QuerySpec query{Aggregation::kSum, false};
  const auto approx = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 110.0, 1.0)}),
       window_of(20, {cell(0, 4, 4, 100.0, 1.0)})},
      query);
  const auto exact = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 100.0, 1.0)}),
       window_of(20, {cell(0, 4, 4, 100.0, 1.0)})},
      query);
  EXPECT_NEAR(mean_accuracy_loss(approx, exact, query), 0.05, 1e-12);
}

TEST(AccuracyLoss, MissedGroupCountsAsTotalLoss) {
  QuerySpec query{Aggregation::kSum, true};
  // Approx missed stratum 1 entirely (the SRS failure mode).
  const auto approx = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 100.0, 1.0)})}, query);
  const auto exact = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 100.0, 1.0), cell(1, 2, 2, 50.0, 1.0)})},
      query);
  EXPECT_NEAR(mean_accuracy_loss(approx, exact, query), 0.5, 1e-12);
}

TEST(AccuracyLoss, UnmatchedWindowsSkipped) {
  QuerySpec query{Aggregation::kSum, false};
  const auto approx = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 120.0, 1.0)}),
       window_of(99, {cell(0, 4, 4, 5.0, 1.0)})},  // no exact counterpart
      query);
  const auto exact = evaluate_windows(
      {window_of(10, {cell(0, 4, 4, 100.0, 1.0)})}, query);
  EXPECT_NEAR(mean_accuracy_loss(approx, exact, query), 0.2, 1e-12);
}

TEST(AccuracyLoss, EmptyInputsGiveZero) {
  QuerySpec query{Aggregation::kSum, false};
  EXPECT_EQ(mean_accuracy_loss({}, {}, query), 0.0);
}

TEST(AggregationName, Names) {
  EXPECT_EQ(aggregation_name(Aggregation::kSum), "SUM");
  EXPECT_EQ(aggregation_name(Aggregation::kMean), "MEAN");
  EXPECT_EQ(aggregation_name(Aggregation::kCount), "COUNT");
}

TEST(EvaluateWindows, CountQuery) {
  const auto windows = std::vector<WindowResult>{
      window_of(10, {cell(0, 100, 10, 50.0, 10.0),   // count estimate 100
                     cell(1, 7, 7, 8.0, 1.0)}),      // exactly 7
  };
  QuerySpec query{Aggregation::kCount, true};
  const auto estimates = evaluate_windows(windows, query);
  EXPECT_DOUBLE_EQ(estimates[0].overall.estimate, 107.0);
  ASSERT_EQ(estimates[0].groups.size(), 2u);
  EXPECT_DOUBLE_EQ(estimates[0].groups[0].second.estimate, 100.0);
  EXPECT_DOUBLE_EQ(estimates[0].groups[1].second.estimate, 7.0);
}

// --------------------------------------------------------------------------
// The query registry: sinks, the set, and their lifecycle contracts.

TEST(QueryRegistry, AggregateSinkMatchesEvaluateWindows) {
  const auto window = window_of(
      10, {cell(0, 100, 10, 50.0, 10.0), cell(1, 40, 8, 16.0, 5.0)});
  QuerySpec spec{Aggregation::kSum, true};
  AggregateSink sink("sum", spec);
  sink.bind(engine::WindowConfig{1'000'000, 500'000}, 2.0);
  auto output = sink.evaluate(window);

  const auto reference = evaluate_windows({window}, spec);
  EXPECT_EQ(output.name, "sum");
  EXPECT_EQ(output.z, 2.0);
  EXPECT_EQ(output.estimate.overall.estimate,
            reference.front().overall.estimate);
  EXPECT_EQ(output.estimate.overall.variance,
            reference.front().overall.variance);
  ASSERT_EQ(output.estimate.groups.size(), reference.front().groups.size());
  EXPECT_DOUBLE_EQ(output.observed_relative_bound,
                   output.estimate.overall.relative_bound(2.0));
}

TEST(QueryRegistry, PerQueryConfidenceOverridesDefault) {
  AggregateSink defaulted("default-z", {Aggregation::kMean, false});
  AggregateSink overridden("own-z", {Aggregation::kMean, false});
  overridden.set_z(3.0);
  defaulted.bind(engine::WindowConfig{}, 2.0);
  overridden.bind(engine::WindowConfig{}, 2.0);
  EXPECT_EQ(defaulted.z(), 2.0);
  EXPECT_EQ(overridden.z(), 3.0);
}

TEST(QueryRegistry, AccuracyTargetInheritanceRules) {
  // Aggregates inherit the config-level accuracy budget when they carry no
  // explicit target; histograms never inherit (an aggregate plus a histogram
  // under an accuracy budget keeps exactly one feedback controller).
  AggregateSink plain("plain", {Aggregation::kSum, false});
  AggregateSink targeted("targeted", {Aggregation::kSum, false});
  targeted.set_accuracy_target(0.005);
  HistogramSink histogram("hist", {0.0, 1.0, 10});

  const std::optional<double> fallback = 0.02;
  EXPECT_EQ(plain.accuracy_target(fallback), 0.02);
  EXPECT_EQ(plain.accuracy_target(std::nullopt), std::nullopt);
  EXPECT_EQ(targeted.accuracy_target(fallback), 0.005);
  EXPECT_EQ(histogram.accuracy_target(fallback), std::nullopt);
}

TEST(QueryRegistry, HistogramSinkKeepsWindowAlignedRing) {
  // 2 slides per window: the merged histogram must cover exactly the last
  // two slides' samples, dropping older mass as the window slides.
  HistogramSink sink("hist", {0.0, 10.0, 10});
  sink.bind(engine::WindowConfig{1'000'000, 500'000}, 2.0);

  const auto slide_sample = [](double value) {
    sampling::StratifiedSample<Record> sample;
    sampling::StratumSample<Record> stratum;
    stratum.stratum = 0;
    stratum.seen = 1;
    stratum.weight = 1.0;
    stratum.items.push_back(Record{0, value, 0});
    sample.strata.push_back(std::move(stratum));
    return sample;
  };

  WindowResult window;
  window.cells = {cell(0, 1, 1, 1.0, 1.0)};
  const auto s1 = slide_sample(1.5);
  const auto s2 = slide_sample(2.5);
  const auto s3 = slide_sample(3.5);
  sink.on_slide({}, &s1, nullptr);
  sink.on_slide({}, &s2, nullptr);
  auto first = sink.evaluate(window);
  ASSERT_TRUE(first.histogram.has_value());
  EXPECT_DOUBLE_EQ(first.histogram->total(), 2.0);  // slides 1+2
  EXPECT_DOUBLE_EQ(first.histogram->bucket(1), 1.0);

  sink.on_slide({}, &s3, nullptr);
  auto second = sink.evaluate(window);
  ASSERT_TRUE(second.histogram.has_value());
  EXPECT_DOUBLE_EQ(second.histogram->total(), 2.0);  // slides 2+3
  EXPECT_DOUBLE_EQ(second.histogram->bucket(1), 0.0);  // slide 1 aged out
  EXPECT_DOUBLE_EQ(second.histogram->bucket(3), 1.0);
}

TEST(QueryRegistry, QuerySetCopiesDeepCloneSinks) {
  QuerySet original;
  original.aggregate("sum", {Aggregation::kSum, false});
  original.histogram("hist", {0.0, 10.0, 4});

  QuerySet copy = original;
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_NE(copy.sinks()[0].get(), original.sinks()[0].get());
  EXPECT_EQ(copy.sinks()[0]->name(), "sum");
  EXPECT_EQ(copy.sinks()[1]->name(), "hist");

  // Clones are unbound and stateless: binding/feeding the copy's histogram
  // sink must not leak state into the original (and vice versa).
  auto clones = copy.clone_sinks();
  ASSERT_EQ(clones.size(), 2u);
  clones[1]->bind(engine::WindowConfig{1'000'000, 500'000}, 2.0);
  sampling::StratifiedSample<Record> sample;
  sampling::StratumSample<Record> stratum;
  stratum.stratum = 0;
  stratum.seen = 1;
  stratum.weight = 1.0;
  stratum.items.push_back(Record{0, 5.0, 0});
  sample.strata.push_back(std::move(stratum));
  clones[1]->on_slide({}, &sample, nullptr);

  WindowResult window;
  window.cells = {cell(0, 1, 1, 5.0, 1.0)};
  auto from_clone = clones[1]->evaluate(window);
  ASSERT_TRUE(from_clone.histogram.has_value());
  EXPECT_DOUBLE_EQ(from_clone.histogram->total(), 1.0);

  auto fresh = copy.sinks()[1]->clone();
  fresh->bind(engine::WindowConfig{1'000'000, 500'000}, 2.0);
  auto from_fresh = fresh->evaluate(window);
  ASSERT_TRUE(from_fresh.histogram.has_value());
  EXPECT_DOUBLE_EQ(from_fresh.histogram->total(), 0.0);  // no slides seen
}

TEST(EvaluateWindows, CountQueryEndToEnd) {
  // COUNT estimated from OASRS weights equals the exact window population.
  std::vector<Record> records;
  for (int i = 0; i < 2000; ++i) {
    records.push_back({static_cast<sampling::StratumId>(i % 3), 1.0,
                       static_cast<std::int64_t>(i) * 500});
  }
  const engine::WindowConfig window{200'000, 100'000};
  const auto exact = exact_window_results(records, window);
  QuerySpec query{Aggregation::kCount, false};
  for (const auto& estimate : evaluate_windows(exact, query)) {
    EXPECT_DOUBLE_EQ(estimate.overall.estimate,
                     static_cast<double>(estimate.overall.population));
  }
}

}  // namespace
}  // namespace streamapprox::core
