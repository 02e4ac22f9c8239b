// Robustness under pressure: tiny channels (heavy backpressure), extreme
// parallelism, all query-budget kinds through the live facade, and facade
// behaviour on pathological topics.
#include <gtest/gtest.h>

#include "core/stream_approx.h"
#include "core/systems.h"
#include "engine/pipelined/aggregators.h"
#include "ingest/replay.h"
#include "workload/synthetic.h"

namespace streamapprox::core {
namespace {

using engine::Record;

std::vector<Record> make_stream(double seconds, double rate,
                                std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

TEST(Robustness, PipelineSurvivesTinyChannels) {
  // Channel capacity 1 forces constant backpressure; correctness must not
  // depend on buffering.
  const auto records = make_stream(2.0, 50000.0, 1);
  engine::pipelined::PipelineConfig config;
  config.parallelism = 4;
  config.channel_capacity = 1;
  config.window = {500'000, 250'000};
  auto result = engine::pipelined::run_pipeline(
      records, config, [](std::size_t) {
        return std::make_unique<engine::pipelined::ExactSlideAggregator>();
      });
  EXPECT_EQ(result.records_processed, records.size());
  std::uint64_t seen = 0;
  for (const auto& window : result.windows) {
    for (const auto& cell : window.cells) seen += cell.seen;
  }
  EXPECT_GT(seen, 0u);
}

TEST(Robustness, PipelineMoreWorkersThanRecords) {
  std::vector<Record> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back({0, 1.0, static_cast<std::int64_t>(i) * 100'000});
  }
  engine::pipelined::PipelineConfig config;
  config.parallelism = 16;
  config.window = {500'000, 500'000};
  auto result = engine::pipelined::run_pipeline(
      records, config, [](std::size_t) {
        return std::make_unique<engine::pipelined::ExactSlideAggregator>();
      });
  EXPECT_EQ(result.records_processed, 5u);
  ASSERT_EQ(result.windows.size(), 1u);
  std::uint64_t seen = 0;
  for (const auto& cell : result.windows[0].cells) seen += cell.seen;
  EXPECT_EQ(seen, 5u);
}

TEST(Robustness, BatchedSinglePartitionSingleWorker) {
  const auto records = make_stream(2.0, 20000.0, 2);
  SystemConfig config;
  config.sampling_fraction = 0.5;
  config.workers = 1;
  config.partitions = 1;
  config.batch_interval_us = 250'000;
  config.window = {500'000, 250'000};
  config.query_cost = engine::QueryCost{0};
  config.stage_overhead = std::chrono::microseconds(0);
  for (SystemKind kind : kAllSystems) {
    const auto result = run_system(kind, records, config);
    EXPECT_EQ(result.records_processed, records.size())
        << system_name(kind);
  }
}

class FacadeBudgetKinds
    : public ::testing::TestWithParam<estimation::QueryBudget> {};

TEST_P(FacadeBudgetKinds, RunsToCompletionWithSaneOutputs) {
  ingest::Broker broker;
  broker.create_topic("budget", 3);
  const auto records = make_stream(3.0, 20000.0, 3);
  ingest::ReplayTool replay(broker, "budget", records, {});

  StreamApproxConfig config;
  config.topic = "budget";
  config.queries.aggregate("query", {Aggregation::kMean, false});
  config.budget = GetParam();
  config.window = {1'000'000, 500'000};
  StreamApprox system(broker, config);
  std::size_t windows = 0;
  system.run([&](const WindowOutput& output) {
    ++windows;
    EXPECT_GT(output.records_seen, 0u);
    EXPECT_GT(output.records_sampled, 0u);
    EXPECT_GT(output.budget_in_force, 0u);
    EXPECT_TRUE(std::isfinite(output.estimate.overall.estimate));
  });
  replay.wait();
  EXPECT_GE(windows, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, FacadeBudgetKinds,
    ::testing::Values(estimation::QueryBudget::fraction(0.3),
                      estimation::QueryBudget::latency_ms(5.0),
                      estimation::QueryBudget::tokens(5000.0),
                      estimation::QueryBudget::relative_error(0.01)),
    [](const ::testing::TestParamInfo<estimation::QueryBudget>& info) {
      switch (info.param.kind) {
        case estimation::BudgetKind::kSampleFraction:
          return std::string("fraction");
        case estimation::BudgetKind::kLatencyMs:
          return std::string("latency");
        case estimation::BudgetKind::kResourceTokens:
          return std::string("tokens");
        case estimation::BudgetKind::kRelativeError:
          return std::string("accuracy");
      }
      return std::string("unknown");
    });

TEST(Robustness, FacadeEmptyTopic) {
  ingest::Broker broker;
  auto& topic = broker.create_topic("empty", 2);
  topic.seal();
  StreamApproxConfig config;
  config.topic = "empty";
  config.window = {1'000'000, 500'000};
  StreamApprox system(broker, config);
  std::size_t windows = 0;
  system.run([&](const WindowOutput&) { ++windows; });
  EXPECT_EQ(windows, 0u);  // nothing arrived, nothing emitted
}

TEST(Robustness, FacadeSingleRecord) {
  ingest::Broker broker;
  broker.create_topic("single", 1);
  {
    ingest::Producer producer(broker, "single");
    producer.send({0, 42.0, 100});
    producer.finish();
  }
  StreamApproxConfig config;
  config.topic = "single";
  config.window = {1'000'000, 1'000'000};  // tumbling
  config.queries.aggregate("query", {Aggregation::kSum, false});
  StreamApprox system(broker, config);
  std::size_t windows = 0;
  system.run([&](const WindowOutput& output) {
    ++windows;
    EXPECT_DOUBLE_EQ(output.estimate.overall.estimate, 42.0);
    EXPECT_DOUBLE_EQ(output.estimate.overall.variance, 0.0);
  });
  EXPECT_EQ(windows, 1u);
}

}  // namespace
}  // namespace streamapprox::core
