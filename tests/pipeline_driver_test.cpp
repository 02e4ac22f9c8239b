// Tests for the reusable slide-lifecycle driver: cold start away from slide
// zero, sequential offer/advance/finish, the per-shard stores of open slides
// and their one close (single-threaded and with concurrent feeders), slide
// runs reaching the samplers, the external sample path and its ordering
// contract, and budget re-tuning by the cost function and by each targeted
// query's own feedback controller.
#include "core/pipeline_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/record_batch.h"
#include "estimation/estimators.h"

namespace streamapprox::core {
namespace {

using engine::Record;

/// 1 s windows sliding every 0.5 s, no query registered.
PipelineDriverConfig bare_window_config() {
  PipelineDriverConfig config;
  config.window = {1'000'000, 500'000};
  return config;
}

/// Offers one record on shard 0; true when the driver accepted it.
bool offer(PipelineDriver& driver, const Record& record) {
  return driver.offer_batch(&record, 1) == 1;
}

/// bare_window_config plus one overall MEAN query named "query".
PipelineDriverConfig small_window_config() {
  auto config = bare_window_config();
  config.queries.aggregate("query", {Aggregation::kMean, false});
  return config;
}

TEST(PipelineDriver, ColdStartPinsFirstObservedSlide) {
  // A stream whose first event time is huge (taxi epoch microseconds) must
  // NOT sweep through millions of empty slides from zero.
  const std::int64_t epoch_us = 1'400'000'000'000'000;
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(small_window_config(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });
  EXPECT_FALSE(driver.next_to_close().has_value());

  for (int i = 0; i < 3000; ++i) {
    offer(driver, Record{static_cast<sampling::StratumId>(i % 3),
                         1.0 + i % 7, epoch_us + i * 1000});
  }
  ASSERT_TRUE(driver.next_to_close().has_value());
  EXPECT_EQ(*driver.next_to_close(), epoch_us / 500'000);

  driver.advance(epoch_us + 2'999'000);
  driver.finish();
  ASSERT_GE(outputs.size(), 1u);
  // Window timestamps are absolute despite the cold start.
  EXPECT_GE(outputs.front().estimate.window_end_us, epoch_us);
}

TEST(PipelineDriver, SequentialAdvanceClosesBehindWatermark) {
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(small_window_config(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });
  // The caller owns the watermark: a lagging partition keeps it low.
  offer(driver, Record{1, 1.0, 10'000});  // lagging stratum, clock 10 ms
  for (int i = 0; i < 2000; ++i) {
    offer(driver, Record{0, 1.0, i * 1000});
  }
  // Watermark = min(10'000, 1'999'000): no slide end passed yet.
  EXPECT_EQ(driver.advance(10'000), 0u);
  for (int i = 0; i < 2000; ++i) {
    offer(driver, Record{1, 1.0, i * 1000});
  }
  // Both clocks at 1'999'000: slides 0..2 close.
  EXPECT_EQ(driver.advance(1'999'000), 3u);
  driver.finish();
  ASSERT_GE(outputs.size(), 3u);
  std::uint64_t seen = 0;
  for (const auto& output : outputs) seen = std::max(seen, output.records_seen);
  EXPECT_GT(seen, 0u);
}

TEST(PipelineDriver, AdvanceTakesResolvedWatermark) {
  // The exchange stamps policy-complete watermarks, and both facade paths
  // hand them to advance() unchanged: kNoWatermark (a silent partition is
  // still within grace) closes nothing, and kWatermarkFlush (no partition
  // gates) closes through the last slide opened. The callback only counts,
  // so a driver that treats the flush as a clock cannot grow memory while
  // it sweeps empty slides.
  std::size_t windows = 0;
  PipelineDriver driver(bare_window_config(),
                        [&](const WindowOutput&) { ++windows; });
  for (int i = 0; i < 1500; ++i) offer(driver, Record{0, 1.0, i * 1000});
  EXPECT_EQ(driver.advance(engine::kNoWatermark), 0u);
  EXPECT_EQ(driver.advance(engine::kWatermarkFlush), 3u);
  EXPECT_EQ(driver.next_to_close(), 3);
  EXPECT_EQ(windows, 2u);
  EXPECT_FALSE(offer(driver, Record{0, 1.0, 600'000}));  // slide 1: closed
}

TEST(PipelineDriver, LateRecordsAreDroppedAfterClose) {
  PipelineDriver driver(small_window_config(), [](const WindowOutput&) {});
  for (int i = 0; i < 5000; ++i) {
    offer(driver, Record{0, 1.0, i * 1000});
    offer(driver, Record{1, 1.0, i * 1000});
  }
  ASSERT_GT(driver.advance(4'999'000), 0u);
  // A record for slide 0 is now behind the watermark.
  EXPECT_FALSE(offer(driver, Record{0, 1.0, 1000}));
  EXPECT_TRUE(offer(driver, Record{0, 1.0, 4'999'000}));
}

TEST(PipelineDriver, OfferBatchMatchesPerRecordOffer) {
  // The batched hot path (one slide lookup per run of same-slide records)
  // is the same lifecycle: identical seeds must yield identical windows.
  std::vector<WindowOutput> by_record;
  std::vector<WindowOutput> by_batch;
  PipelineDriver a(small_window_config(),
                   [&](const WindowOutput& o) { by_record.push_back(o); });
  PipelineDriver b(small_window_config(),
                   [&](const WindowOutput& o) { by_batch.push_back(o); });

  std::vector<Record> records;
  for (int i = 0; i < 6000; ++i) {
    records.push_back(Record{static_cast<sampling::StratumId>(i % 3),
                             1.0 + i % 7, i * 1000});
  }
  for (const auto& record : records) offer(a, record);
  // Feed b the same stream in chunks, as the poll loop would.
  for (std::size_t i = 0; i < records.size(); i += 512) {
    const std::size_t n = std::min<std::size_t>(512, records.size() - i);
    EXPECT_EQ(b.offer_batch(records.data() + i, n), n);
  }
  a.advance(5'999'000);
  b.advance(5'999'000);
  a.finish();
  b.finish();

  ASSERT_GT(by_record.size(), 3u);
  ASSERT_EQ(by_record.size(), by_batch.size());
  for (std::size_t i = 0; i < by_record.size(); ++i) {
    EXPECT_EQ(by_record[i].records_seen, by_batch[i].records_seen);
    EXPECT_EQ(by_record[i].records_sampled, by_batch[i].records_sampled);
    EXPECT_DOUBLE_EQ(by_record[i].estimate.overall.estimate,
                     by_batch[i].estimate.overall.estimate);
  }
}

TEST(PipelineDriver, OfferBatchDropsLateRuns) {
  PipelineDriver driver(small_window_config(), [](const WindowOutput&) {});
  std::vector<Record> warm;
  for (int i = 0; i < 5000; ++i) warm.push_back(Record{0, 1.0, i * 1000});
  EXPECT_EQ(driver.offer_batch(warm.data(), warm.size()), warm.size());
  ASSERT_GT(driver.advance(4'999'000), 0u);

  // A batch mixing a late run (slide 0, now closed) with a live run: only
  // the live records are accepted.
  std::vector<Record> mixed = {Record{0, 1.0, 1000},
                               Record{0, 1.0, 2000},
                               Record{0, 1.0, 4'999'000},
                               Record{0, 1.0, 4'999'500}};
  EXPECT_EQ(driver.offer_batch(mixed.data(), mixed.size()), 2u);
}

/// A one-stratum slide sample: `sampled` records of value 1 standing for
/// `seen` arrivals.
sampling::StratifiedSample<Record> one_stratum_sample(
    sampling::StratumId stratum, std::uint64_t seen, std::size_t sampled) {
  sampling::StratumSample<Record> part;
  part.stratum = stratum;
  part.seen = seen;
  part.weight = static_cast<double>(seen) / static_cast<double>(sampled);
  part.items.assign(sampled, Record{stratum, 1.0, 0});
  sampling::StratifiedSample<Record> sample;
  sample.strata.push_back(std::move(part));
  return sample;
}

TEST(PipelineDriver, ExternalPathAssemblesWindows) {
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(bare_window_config(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });

  for (std::int64_t slide = 0; slide < 4; ++slide) {
    driver.close_slide_sample(slide, one_stratum_sample(0, 100, 10), {});
  }
  // 2 slides per window -> windows end at slides 1, 2, 3.
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(outputs[0].estimate.window_start_us, 0);
  EXPECT_EQ(outputs[0].estimate.window_end_us, 1'000'000);
  EXPECT_EQ(outputs[2].estimate.window_end_us, 2'000'000);
  for (const auto& output : outputs) {
    EXPECT_EQ(output.records_seen, 200u);  // both slides' cells
    EXPECT_EQ(output.records_sampled, 20u);
  }
}

TEST(PipelineDriver, ExternalPathPadsGapsWithEmptySlides) {
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(bare_window_config(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });

  driver.close_slide_sample(10, one_stratum_sample(3, 5, 5), {});
  // Slides 11..13 are padded empty.
  driver.close_slide_sample(14, one_stratum_sample(3, 5, 5), {});
  ASSERT_EQ(outputs.size(), 4u);  // ends at slides 11, 12, 13, 14
  EXPECT_EQ(outputs.front().estimate.window_end_us, 12 * 500'000);
  EXPECT_EQ(outputs.front().records_seen, 5u);  // slide 10 + padded 11
  EXPECT_EQ(outputs[1].records_seen, 0u);       // padded 11 + 12
  EXPECT_EQ(outputs[2].records_seen, 0u);       // padded 12 + 13
  EXPECT_EQ(outputs.back().estimate.window_end_us, 15 * 500'000);
  EXPECT_EQ(outputs.back().records_seen, 5u);
  EXPECT_EQ(outputs.back().records_sampled, 5u);
}

TEST(PipelineDriver, ExternalPathRejectsOutOfOrderSlides) {
  PipelineDriver driver(bare_window_config(), nullptr);
  driver.close_slide_sample(5, {}, {});
  EXPECT_THROW(driver.close_slide_sample(4, {}, {}), std::logic_error);
}

TEST(PipelineDriver, SamplePathMatchesSequentialSeenCounts) {
  // The same records through the driver-owned samplers and through an
  // externally driven sampler must report identical per-window seen counts.
  std::vector<Record> records;
  for (int i = 0; i < 20000; ++i) {
    records.push_back(Record{static_cast<sampling::StratumId>(i % 3),
                             double(i % 11), i * 250});
  }

  std::vector<WindowOutput> sequential;
  {
    PipelineDriver driver(small_window_config(), [&](const WindowOutput& o) {
      sequential.push_back(o);
    });
    for (const auto& r : records) offer(driver, r);
    driver.advance(records.back().event_time_us);
    driver.finish();
  }

  std::vector<WindowOutput> external;
  {
    PipelineDriver driver(small_window_config(), [&](const WindowOutput& o) {
      external.push_back(o);
    });
    std::map<std::int64_t, PipelineDriver::Sampler> samplers;
    for (const auto& r : records) {
      const std::int64_t slide = r.event_time_us / 500'000;
      auto it = samplers.find(slide);
      if (it == samplers.end()) {
        it = samplers
                 .try_emplace(slide, driver.slide_sampler_config(slide),
                              engine::RecordStratum{})
                 .first;
      }
      it->second.offer(r);
    }
    for (auto& [slide, sampler] : samplers) {
      driver.close_slide_sample(slide, sampler.take(), {});
    }
  }

  ASSERT_EQ(sequential.size(), external.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, external[i].records_seen);
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              external[i].estimate.window_end_us);
  }
}

TEST(PipelineDriver, FractionBudgetRetunesFromArrivals) {
  auto config = small_window_config();
  config.budget = estimation::QueryBudget::fraction(0.2);
  PipelineDriver driver(std::move(config), [](const WindowOutput&) {});
  const auto budget = [&] {
    return driver.slide_sampler_config(0).total_budget;
  };
  const std::size_t before = budget();
  for (int i = 0; i < 50000; ++i) {
    offer(driver, Record{static_cast<sampling::StratumId>(i % 3), 1.0,
                         i * 100});
  }
  driver.advance(49'999 * 100);
  driver.finish();
  // 0.2 of ~5000 records/slide: the budget moved away from the initial
  // guess toward the cost function's answer.
  EXPECT_NE(budget(), before);
  EXPECT_GT(budget(), 0u);
}

std::vector<Record> mixed_stream(int count) {
  std::vector<Record> records;
  records.reserve(count);
  for (int i = 0; i < count; ++i) {
    records.push_back(Record{static_cast<sampling::StratumId>(i % 3),
                             1.0 + i % 7, i * 250});
  }
  return records;
}

std::vector<WindowOutput> run_driver(PipelineDriverConfig config,
                                     const std::vector<Record>& records) {
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(std::move(config),
                        [&](const WindowOutput& o) { outputs.push_back(o); });
  driver.offer_batch(records.data(), records.size());
  driver.advance(records.back().event_time_us);
  driver.finish();
  return outputs;
}

void expect_estimates_bit_identical(const WindowEstimate& a,
                                    const WindowEstimate& b) {
  EXPECT_EQ(a.window_start_us, b.window_start_us);
  EXPECT_EQ(a.window_end_us, b.window_end_us);
  EXPECT_EQ(a.overall.estimate, b.overall.estimate);
  EXPECT_EQ(a.overall.variance, b.overall.variance);
  EXPECT_EQ(a.overall.population, b.overall.population);
  EXPECT_EQ(a.overall.sample_size, b.overall.sample_size);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].first, b.groups[g].first);
    EXPECT_EQ(a.groups[g].second.estimate, b.groups[g].second.estimate);
    EXPECT_EQ(a.groups[g].second.variance, b.groups[g].second.variance);
  }
}

TEST(PipelineDriver, MultiQuerySamplesTheStreamOnce) {
  // Three concurrent queries (per-stratum SUM, overall MEAN, HISTOGRAM) over
  // one driver: the stream is sampled once, so per-window seen/sampled
  // counts — and each query's estimate — are identical to the three
  // corresponding single-query runs with the same seed.
  const auto records = mixed_stream(30000);

  auto multi = bare_window_config();
  multi.queries.aggregate("sum/stratum", {Aggregation::kSum, true});
  multi.queries.aggregate("mean", {Aggregation::kMean, false});
  multi.queries.histogram("hist", {0.0, 8.0, 16});
  const auto combined = run_driver(std::move(multi), records);

  auto single_sum = bare_window_config();
  single_sum.queries.aggregate("sum/stratum", {Aggregation::kSum, true});
  auto single_mean = bare_window_config();
  single_mean.queries.aggregate("mean", {Aggregation::kMean, false});
  auto single_hist = bare_window_config();
  single_hist.queries.histogram("hist", {0.0, 8.0, 16});
  const std::vector<std::vector<WindowOutput>> singles = {
      run_driver(std::move(single_sum), records),
      run_driver(std::move(single_mean), records),
      run_driver(std::move(single_hist), records),
  };

  ASSERT_GT(combined.size(), 3u);
  for (const auto& outputs : singles) {
    ASSERT_EQ(combined.size(), outputs.size());
  }
  for (std::size_t i = 0; i < combined.size(); ++i) {
    ASSERT_EQ(combined[i].queries.size(), 3u);
    for (std::size_t q = 0; q < 3; ++q) {
      const auto& single = singles[q][i];
      // Sampling effort is per window, not per query: every run reports the
      // same counts because the stream was ingested and sampled ONCE.
      EXPECT_EQ(combined[i].records_seen, single.records_seen)
          << "window " << i << " query " << q;
      EXPECT_EQ(combined[i].records_sampled, single.records_sampled)
          << "window " << i << " query " << q;
      expect_estimates_bit_identical(combined[i].queries[q].estimate,
                                     single.queries.front().estimate);
    }
  }
}

TEST(PipelineDriver, PerQueryConfidenceCoexists) {
  // Per-query z (satellite): a 95%-confidence and a 99.7%-confidence copy of
  // the same MEAN query report bounds in exact z ratio within one window.
  auto config = bare_window_config();
  config.queries.aggregate("mean95", {Aggregation::kMean, false},
                           /*z=*/2.0);
  config.queries.aggregate("mean3sigma", {Aggregation::kMean, false},
                           /*z=*/3.0);
  const auto outputs = run_driver(std::move(config), mixed_stream(20000));

  ASSERT_GT(outputs.size(), 1u);
  for (const auto& output : outputs) {
    ASSERT_EQ(output.queries.size(), 2u);
    EXPECT_EQ(output.queries[0].z, 2.0);
    EXPECT_EQ(output.queries[1].z, 3.0);
    // Same estimate, same variance — only the confidence differs.
    EXPECT_EQ(output.queries[0].estimate.overall.estimate,
              output.queries[1].estimate.overall.estimate);
    if (output.queries[0].observed_relative_bound > 0.0) {
      EXPECT_DOUBLE_EQ(output.queries[1].observed_relative_bound,
                       1.5 * output.queries[0].observed_relative_bound);
    }
  }
}

TEST(PipelineDriver, StrictestAccuracyTargetDrivesBudget) {
  // Two targeted queries: the stricter (smaller) target must demand at least
  // as large a budget as it would alone — the max-across-controllers rule.
  const auto records = mixed_stream(40000);

  auto strict_alone = bare_window_config();
  strict_alone.queries.aggregate("mean", {Aggregation::kMean, false},
                                 std::nullopt, /*accuracy_target=*/0.001);
  const auto strict = run_driver(std::move(strict_alone), records);

  auto both = bare_window_config();
  both.queries.aggregate("loose", {Aggregation::kMean, false}, std::nullopt,
                         /*accuracy_target=*/0.5);
  both.queries.aggregate("mean", {Aggregation::kMean, false}, std::nullopt,
                         /*accuracy_target=*/0.001);
  const auto combined = run_driver(std::move(both), records);

  ASSERT_EQ(strict.size(), combined.size());
  ASSERT_GT(strict.size(), 2u);
  for (std::size_t i = 0; i < strict.size(); ++i) {
    EXPECT_GE(combined[i].budget_in_force, strict[i].budget_in_force)
        << "window " << i;
  }
  // And the strict target did move the budget off its initial value.
  EXPECT_GT(combined.back().budget_in_force, combined.front().budget_in_force);
}

TEST(PipelineDriver, HistogramOnlyRegistryStillAdaptsToAccuracyBudget) {
  // A registry holding only a HISTOGRAM query plus an accuracy budget: no
  // sink inherits the fallback target, but adaptation must not silently
  // die — the first query's observed bound drives one controller.
  auto config = bare_window_config();
  config.budget = estimation::QueryBudget::relative_error(1e-6);  // very strict
  config.queries.histogram("hist", {0.0, 8.0, 16});
  const auto outputs = run_driver(std::move(config), mixed_stream(30000));
  ASSERT_GT(outputs.size(), 3u);
  // The strict target forces the budget to grow off its initial value.
  EXPECT_GT(outputs.back().budget_in_force, outputs.front().budget_in_force);
}

TEST(PipelineDriver, EachTargetedQueryHoldsItsOwnController) {
  // Standalone controllers fed every query's reported bound predict each
  // window's budget exactly. The strict query drives it first; after its
  // detach the loose one does, which kept updating from its own bounds; a
  // targeted query attached mid-stream starts from the budget in force.
  constexpr std::size_t kInitial = 1024;
  constexpr double kLoose = 0.5;
  constexpr double kStrict = 0.002;
  auto config = bare_window_config();
  config.initial_budget = kInitial;
  // z = 3 gives the loose query a bound of its own.
  config.queries.aggregate("loose", {Aggregation::kMean, false}, 3.0, kLoose);
  config.queries.aggregate("strict", {Aggregation::kMean, false},
                           std::nullopt, kStrict);
  std::map<std::string, estimation::FeedbackController> controllers;
  controllers.emplace("loose",
                      estimation::FeedbackController(kLoose, kInitial));
  controllers.emplace("strict",
                      estimation::FeedbackController(kStrict, kInitial));
  const auto strictest = [&] {
    std::size_t budget = 0;
    for (const auto& [name, controller] : controllers) {
      budget = std::max(budget, controller.budget());
    }
    return budget;
  };
  std::vector<std::size_t> budgets;
  PipelineDriver driver(std::move(config), [&](const WindowOutput& o) {
    EXPECT_EQ(o.budget_in_force, strictest())
        << "window ending " << o.estimate.window_end_us;
    budgets.push_back(o.budget_in_force);
    for (const auto& q : o.queries) {
      controllers.at(q.name).update(q.observed_relative_bound);
    }
  });
  const auto records = mixed_stream(40'000);  // 2000 records per slide
  std::size_t fed = 0;
  const auto close_slides_through = [&](std::int64_t last) {
    const std::int64_t end_us = (last + 1) * 500'000;
    const std::size_t begin = fed;
    while (fed < records.size() && records[fed].event_time_us < end_us) ++fed;
    driver.offer_batch(records.data() + begin, fed - begin);
    driver.advance(end_us);
  };

  close_slides_through(7);
  ASSERT_EQ(budgets.size(), 7u);
  const std::size_t strict_peak =
      *std::max_element(budgets.begin(), budgets.end());
  EXPECT_GT(strict_peak, kInitial);
  EXPECT_GT(controllers.at("strict").budget(),
            controllers.at("loose").budget());

  ASSERT_TRUE(driver.detach_query("strict"));
  controllers.erase("strict");  // retires at the next slide close
  close_slides_through(11);
  ASSERT_EQ(budgets.size(), 11u);
  EXPECT_LT(budgets.back(), strict_peak);

  auto late = std::make_unique<AggregateSink>(
      "late", QuerySpec{Aggregation::kMean, false});
  late->set_accuracy_target(kStrict);
  ASSERT_EQ(driver.attach_query(std::move(late)), nullptr);
  const std::size_t in_force = strictest();
  EXPECT_LT(in_force, kInitial);
  controllers.emplace("late",
                      estimation::FeedbackController(kStrict, in_force));
  close_slides_through(19);
  ASSERT_EQ(budgets.size(), 19u);
  EXPECT_GT(controllers.at("late").budget(), in_force);
  EXPECT_EQ(driver.query_count(), 2u);
}

/// `count` records of `stratum` with event times start_us, +step_us, ...
std::vector<Record> stratum_run(sampling::StratumId stratum, int count,
                                std::int64_t start_us,
                                std::int64_t step_us = 1000) {
  std::vector<Record> records;
  for (int i = 0; i < count; ++i) {
    records.push_back(Record{stratum, 1.0 + i % 5, start_us + i * step_us});
  }
  return records;
}

TEST(PipelineDriver, ShardsMergeAtOneClose) {
  // Two shards fed from one thread: the cold-start pin, the merge of one
  // stratum split across shards, the late fence, finish() and the kernel
  // counters all span both shards.
  auto config = bare_window_config();
  config.window = {500'000, 500'000};  // one slide per window
  config.queries.aggregate("sum/stratum", {Aggregation::kSum, true});
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(
      std::move(config), [&](const WindowOutput& o) { outputs.push_back(o); },
      /*shards=*/2);

  const auto offer = [&](const std::vector<Record>& records,
                         std::size_t shard) {
    return driver.offer_batch(records.data(), records.size(), shard);
  };
  EXPECT_EQ(offer(stratum_run(7, 100, 2'000'000), 0), 100u);  // slide 4
  EXPECT_EQ(offer(stratum_run(7, 50, 1'000'000), 1), 50u);    // slide 2
  // Shard 1 opened the earlier slide: the first close starts there.
  ASSERT_TRUE(driver.next_to_close().has_value());
  EXPECT_EQ(*driver.next_to_close(), 2);
  // The same stratum in the same slide on the other shard, as a stolen
  // morsel would put it.
  EXPECT_EQ(offer(stratum_run(7, 30, 1'100'000), 0), 30u);  // slide 2
  EXPECT_EQ(offer(stratum_run(8, 20, 2'500'000), 1), 20u);  // slide 5
  EXPECT_EQ(driver.kernel_stats().bulk_runs, 0u);  // banked at close

  EXPECT_EQ(driver.advance(1'500'000), 1u);  // closes slide 2 only
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].estimate.window_end_us, 1'500'000);
  EXPECT_EQ(outputs[0].records_seen, 80u);
  ASSERT_EQ(outputs[0].queries.size(), 1u);
  const auto& groups = outputs[0].queries[0].estimate.groups;
  ASSERT_EQ(groups.size(), 1u);  // one group, not one per shard
  EXPECT_EQ(groups[0].first, 7u);

  // Slide 2 is closed on both shards.
  const Record late{7, 1.0, 1'200'000};
  EXPECT_EQ(driver.offer_batch(&late, 1, 0), 0u);
  EXPECT_EQ(driver.offer_batch(&late, 1, 1), 0u);

  // finish() closes through slide 5, the last slide either shard opened,
  // empty slide 3 included.
  EXPECT_EQ(driver.finish(), 3u);
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_EQ(outputs[1].records_seen, 0u);
  EXPECT_EQ(outputs[2].records_seen, 100u);
  EXPECT_EQ(outputs[3].records_seen, 20u);
  EXPECT_EQ(outputs[3].estimate.window_end_us, 3'000'000);
  EXPECT_EQ(*driver.next_to_close(), 6);
  EXPECT_EQ(driver.finish(), 0u);
  // Four accepted single-stratum runs; the late ones never reached a
  // sampler.
  EXPECT_EQ(driver.kernel_stats().bulk_runs, 4u);
}

/// Keeps a copy of every closed slide's sample.
class SampleRecorder final : public QuerySink {
 public:
  explicit SampleRecorder(
      std::vector<sampling::StratifiedSample<Record>>* samples)
      : QuerySink("samples"), samples_(samples) {}

  void on_slide(const std::vector<estimation::StratumSummary>&,
                const sampling::StratifiedSample<Record>* sample,
                const sketch::SlideSketches*) override {
    samples_->push_back(*sample);
  }
  QueryOutput evaluate(const engine::WindowResult&) override { return {}; }
  std::unique_ptr<QuerySink> clone() const override {
    return std::make_unique<SampleRecorder>(samples_);
  }

 private:
  std::vector<sampling::StratifiedSample<Record>>* samples_;
};

// The absorb path every live feeder runs (slide runs from
// for_each_slide_run, late slides dropped at the fence, every kept run
// absorbed into its slide's sampler) against per-record offer() into
// per-slide samplers. The batch has a stratum run that crosses a slide
// boundary and a whole late-dropped slide, so the sampler must segment each
// kept slide run on its own: its runs are exactly the maximal same-stratum
// runs inside that slide run.
TEST(PipelineDriver, SlideRunsStraddlingSlidesMatchPerRecordOffer) {
  constexpr std::int64_t kSlideUs = 1000;
  std::vector<Record> batch;
  std::int64_t t = 0;
  const auto append = [&](sampling::StratumId stratum, int n,
                          std::int64_t slide) {
    for (int i = 0; i < n; ++i) {
      const std::int64_t time = std::max(t, slide * kSlideUs);
      batch.push_back(Record{stratum, static_cast<double>(batch.size()), time});
      t = time + 1;
    }
  };
  append(5, 30, 0);  // slide 0: late-dropped below
  append(6, 20, 0);
  append(1, 40, 1);  // slide 1: three maximal runs...
  append(2, 30, 1);
  append(3, 25, 1);  // ...the last continues into slide 2
  append(3, 35, 2);  // slide 2: four maximal runs
  append(1, 50, 2);
  append(2, 1, 2);
  append(1, 2, 2);
  const std::map<std::int64_t, std::uint64_t> expected_runs = {{1, 3},
                                                               {2, 4}};

  std::vector<sampling::StratifiedSample<Record>> samples;
  PipelineDriverConfig config;
  config.window = {kSlideUs, kSlideUs};  // one slide per window
  config.initial_budget = 16;  // every reservoir fills and starts rejecting
  // An accuracy budget keeps the cost function out, and the recorder's
  // zero-bound windows hold the budget at its floor of 16.
  config.budget = estimation::QueryBudget::relative_error(0.01);
  config.queries.add(std::make_unique<SampleRecorder>(&samples));
  PipelineDriver driver(config, nullptr);
  // Close slide 0 first, so the batch's slide-0 runs arrive late.
  ASSERT_TRUE(offer(driver, Record{9, 0.0, 0}));
  ASSERT_EQ(driver.advance(kSlideUs), 1u);
  EXPECT_EQ(driver.offer_batch(batch.data(), batch.size()),
            batch.size() - 50);

  std::map<std::int64_t, PipelineDriver::Sampler> per_record;
  for (const auto& record : batch) {
    const std::int64_t slide = record.event_time_us / kSlideUs;
    if (slide < 1) continue;
    auto it = per_record.find(slide);
    if (it == per_record.end()) {
      it = per_record
               .try_emplace(slide, driver.slide_sampler_config(slide),
                            engine::RecordStratum{})
               .first;
    }
    it->second.offer(record);
  }
  ASSERT_EQ(per_record.size(), 2u);

  for (auto& [slide, sampler] : per_record) {
    const std::uint64_t runs_before = driver.kernel_stats().bulk_runs;
    ASSERT_EQ(driver.advance((slide + 1) * kSlideUs), 1u);
    EXPECT_EQ(driver.kernel_stats().bulk_runs - runs_before,
              expected_runs.at(slide))
        << "slide " << slide;
    ASSERT_EQ(samples.size(), static_cast<std::size_t>(slide) + 1);
    const auto& a = samples.back();
    const auto b = sampler.take();
    ASSERT_EQ(a.strata.size(), b.strata.size()) << "slide " << slide;
    for (std::size_t i = 0; i < a.strata.size(); ++i) {
      EXPECT_EQ(a.strata[i].stratum, b.strata[i].stratum);
      EXPECT_EQ(a.strata[i].seen, b.strata[i].seen);
      EXPECT_EQ(a.strata[i].weight, b.strata[i].weight);
      EXPECT_EQ(a.strata[i].items, b.strata[i].items);
    }
  }
}

TEST(PipelineDriver, ConcurrentFeedersMatchExactWindows) {
  // Two feeder threads each offer their own stratum into their own shard
  // while this thread closes slides behind the slower feeder's progress —
  // the sharded path's shape without the exchange. Nothing is late, so
  // every window counts exactly the records the stream holds.
  constexpr int kPerFeeder = 20'000;
  constexpr std::size_t kBatch = 256;
  const std::array<std::vector<Record>, 2> streams = {
      stratum_run(0, kPerFeeder, 0, 250), stratum_run(1, kPerFeeder, 0, 250)};

  std::vector<WindowOutput> outputs;
  PipelineDriver driver(
      small_window_config(),
      [&](const WindowOutput& o) { outputs.push_back(o); },
      /*shards=*/2);
  constexpr std::int64_t kNothingOffered =
      std::numeric_limits<std::int64_t>::min();
  std::array<std::atomic<std::int64_t>, 2> offered_through{kNothingOffered,
                                                           kNothingOffered};
  std::array<std::size_t, 2> accepted{0, 0};
  std::atomic<int> feeders_done{0};
  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < 2; ++f) {
    feeders.emplace_back([&, f] {
      const std::vector<Record>& stream = streams[f];
      for (std::size_t i = 0; i < stream.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, stream.size() - i);
        accepted[f] += driver.offer_batch(stream.data() + i, n, f);
        offered_through[f].store(stream[i + n - 1].event_time_us,
                                 std::memory_order_release);
      }
      feeders_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::size_t closed = 0;
  while (feeders_done.load(std::memory_order_acquire) < 2) {
    const std::int64_t watermark =
        std::min(offered_through[0].load(std::memory_order_acquire),
                 offered_through[1].load(std::memory_order_acquire));
    if (watermark != kNothingOffered) closed += driver.advance(watermark);
    std::this_thread::yield();
  }
  for (auto& feeder : feeders) feeder.join();
  closed += driver.finish();

  EXPECT_EQ(accepted[0], streams[0].size());
  EXPECT_EQ(accepted[1], streams[1].size());
  std::vector<Record> merged;
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    merged.push_back(streams[0][i]);
    merged.push_back(streams[1][i]);
  }
  const auto exact = exact_window_results(merged, {1'000'000, 500'000});
  EXPECT_EQ(closed, 10u);
  ASSERT_EQ(outputs.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    std::uint64_t seen = 0;
    for (const auto& cell : exact[i].cells) seen += cell.seen;
    EXPECT_EQ(outputs[i].estimate.window_end_us, exact[i].window_end_us)
        << "window " << i;
    EXPECT_EQ(outputs[i].records_seen, seen) << "window " << i;
  }
}

TEST(PipelineDriver, ShardedSamplerConfigSplitsBudget) {
  PipelineDriver driver(small_window_config(), [](const WindowOutput&) {});
  const auto whole = driver.slide_sampler_config(7);
  const auto quarter = driver.slide_sampler_config(7, 1, 4);
  EXPECT_EQ(whole.total_budget, 1024u);  // initial_budget, before any close
  EXPECT_EQ(quarter.total_budget, whole.total_budget / 4);
  EXPECT_NE(whole.seed, quarter.seed);
  // shard 0 of 1 reproduces the sequential seed derivation.
  EXPECT_EQ(whole.seed, driver.slide_sampler_config(7, 0, 1).seed);
}

}  // namespace
}  // namespace streamapprox::core
