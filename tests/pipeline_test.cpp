// Tests for the pipelined (Flink-like) dataflow runtime and its aggregators.
#include "engine/pipelined/dataflow.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/pipelined/aggregators.h"

namespace streamapprox::engine::pipelined {
namespace {

std::vector<Record> steady_stream(std::size_t n, std::int64_t spacing_us,
                                  std::uint32_t strata = 2) {
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Record{static_cast<sampling::StratumId>(i % strata),
                             static_cast<double>(i % 10),
                             static_cast<std::int64_t>(i) * spacing_us});
  }
  return records;
}

PipelineConfig make_config(std::size_t parallelism = 2) {
  PipelineConfig config;
  config.parallelism = parallelism;
  config.window = {200'000, 100'000};
  return config;
}

AggregatorFactory exact_factory() {
  return [](std::size_t) {
    return std::make_unique<ExactSlideAggregator>(QueryCost{});
  };
}

TEST(Pipeline, ExactAggregationCountsEverything) {
  const auto records = steady_stream(10000, 100);  // 1s of stream
  auto result = run_pipeline(records, make_config(4), exact_factory());
  EXPECT_EQ(result.records_processed, records.size());
  ASSERT_FALSE(result.windows.empty());
  // Full windows are 200ms = 2000 records.
  for (const auto& window : result.windows) {
    std::uint64_t total = 0;
    for (const auto& cell : window.cells) total += cell.seen;
    EXPECT_EQ(total, 2000u);
  }
}

TEST(Pipeline, WindowSumsMatchDirectComputation) {
  const auto records = steady_stream(10000, 100);
  auto result = run_pipeline(records, make_config(3), exact_factory());
  // Values cycle 0..9, so any 2000-record window sums to 2000/10 * 45.
  for (const auto& window : result.windows) {
    double sum = 0.0;
    for (const auto& cell : window.cells) sum += cell.sum;
    EXPECT_NEAR(sum, 9000.0, 50.0);
  }
}

TEST(Pipeline, SingleWorker) {
  const auto records = steady_stream(5000, 100);
  auto result = run_pipeline(records, make_config(1), exact_factory());
  EXPECT_EQ(result.records_processed, 5000u);
  EXPECT_FALSE(result.windows.empty());
}

TEST(Pipeline, EmptyStreamProducesNoFullWindows) {
  auto result = run_pipeline({}, make_config(2), exact_factory());
  EXPECT_EQ(result.records_processed, 0u);
}

TEST(Pipeline, RejectsInvalidWindowBeforeStartingThreads) {
  // The window assembler is built before any thread starts, so a bad
  // geometry throws to the caller instead of terminating on the collector
  // thread.
  PipelineConfig config = make_config(2);
  config.window = {10, 3};  // size not a multiple of the slide
  EXPECT_THROW(run_pipeline(steady_stream(100, 1), config, exact_factory()),
               std::invalid_argument);
}

TEST(Pipeline, TumblingWindows) {
  PipelineConfig config;
  config.parallelism = 2;
  config.window = {100'000, 100'000};
  const auto records = steady_stream(1000, 1000);  // 1s, 100 per slide
  auto result = run_pipeline(records, config, exact_factory());
  ASSERT_GE(result.windows.size(), 9u);
  for (const auto& window : result.windows) {
    std::uint64_t total = 0;
    for (const auto& cell : window.cells) total += cell.seen;
    EXPECT_EQ(total, 100u);
  }
}

TEST(Pipeline, OasrsAggregatorSamplesWithinBudget) {
  const auto records = steady_stream(20000, 100, 4);
  PipelineConfig config = make_config(2);
  auto factory = [](std::size_t w) {
    sampling::OasrsConfig oasrs;
    oasrs.total_budget = 200;  // per worker per slide
    oasrs.seed = 100 + w;
    return std::make_unique<OasrsSlideAggregator>(oasrs, QueryCost{});
  };
  auto result = run_pipeline(records, config, factory);
  ASSERT_FALSE(result.windows.empty());
  for (const auto& window : result.windows) {
    std::uint64_t seen = 0;
    std::uint64_t sampled = 0;
    for (const auto& cell : window.cells) {
      seen += cell.seen;
      sampled += cell.sampled;
    }
    // Counters see everything: 100 ms slides over 100 us spacing = 1000
    // records/slide, 2 slides/window. Samples respect the per-worker
    // per-slide budget: 2 workers * 2 slides * 200.
    EXPECT_EQ(seen, 2000u);
    EXPECT_LE(sampled, 2u * 2u * 200u + 8u);
    EXPECT_GT(sampled, 0u);
  }
}

TEST(Pipeline, OasrsWeightedSumTracksExact) {
  const auto records = steady_stream(50000, 20, 3);
  PipelineConfig config = make_config(4);
  auto exact = run_pipeline(records, config, exact_factory());
  auto factory = [](std::size_t w) {
    sampling::OasrsConfig oasrs;
    oasrs.total_budget = 400;
    oasrs.seed = 7'000 + w;
    return std::make_unique<OasrsSlideAggregator>(oasrs, QueryCost{});
  };
  auto approx = run_pipeline(records, config, factory);
  ASSERT_EQ(exact.windows.size(), approx.windows.size());
  for (std::size_t i = 0; i < exact.windows.size(); ++i) {
    double exact_sum = 0.0;
    for (const auto& cell : exact.windows[i].cells) exact_sum += cell.sum;
    double approx_sum = 0.0;
    for (const auto& cell : approx.windows[i].cells) {
      approx_sum += cell.sum * cell.weight;
    }
    EXPECT_NEAR(approx_sum, exact_sum, exact_sum * 0.15)
        << "window " << i;
  }
}

TEST(ExactAggregator, PerStratumCells) {
  ExactSlideAggregator aggregator{QueryCost{}};
  aggregator.offer({3, 1.0, 0});
  aggregator.offer({3, 2.0, 0});
  aggregator.offer({5, 10.0, 0});
  auto cells = aggregator.take_slide();
  ASSERT_EQ(cells.size(), 2u);
  for (const auto& cell : cells) {
    if (cell.stratum == 3) {
      EXPECT_EQ(cell.seen, 2u);
      EXPECT_DOUBLE_EQ(cell.sum, 3.0);
      EXPECT_DOUBLE_EQ(cell.weight, 1.0);
    } else {
      EXPECT_EQ(cell.stratum, 5u);
      EXPECT_EQ(cell.seen, 1u);
    }
  }
  // Slide reset.
  EXPECT_TRUE(aggregator.take_slide().empty());
}

TEST(QueryCostModel, ChargeIsNearIdentityButNotFree) {
  QueryCost cost{64};
  const double x = cost.charge(123.456);
  EXPECT_NEAR(x, 123.456, 1e-6);
  QueryCost free{0};
  EXPECT_EQ(free.charge(5.0), 5.0);
}

}  // namespace
}  // namespace streamapprox::engine::pipelined
