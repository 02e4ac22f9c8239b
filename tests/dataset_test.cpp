// Tests for the RDD-like Dataset and the stage scheduler.
#include "engine/batched/dataset.h"

#include <gtest/gtest.h>

#include <numeric>

namespace streamapprox::engine::batched {
namespace {

Scheduler make_scheduler(std::size_t workers = 4) {
  SchedulerConfig config;
  config.workers = workers;
  config.stage_overhead = std::chrono::microseconds(0);  // fast tests
  return Scheduler(config);
}

std::vector<int> iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// Every element, partition after partition.
std::vector<int> flatten(const Dataset<int>& dataset) {
  std::vector<int> out;
  for (const auto& partition : dataset.partitions()) {
    out.insert(out.end(), partition.begin(), partition.end());
  }
  return out;
}

TEST(Scheduler, CountsStages) {
  auto scheduler = make_scheduler();
  EXPECT_EQ(scheduler.stages_run(), 0u);
  scheduler.run_stage(4, [](std::size_t) {});
  scheduler.run_stage(2, [](std::size_t) {});
  EXPECT_EQ(scheduler.stages_run(), 2u);
}

TEST(Scheduler, StageRunsEveryTask) {
  auto scheduler = make_scheduler();
  std::vector<std::atomic<int>> hits(16);
  scheduler.run_stage(16, [&](std::size_t t) { hits[t].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ZeroWorkersCoercedToOne) {
  SchedulerConfig config;
  config.workers = 0;
  Scheduler scheduler(config);
  EXPECT_EQ(scheduler.workers(), 1u);
}

TEST(Dataset, FromSplitsEvenly) {
  auto scheduler = make_scheduler();
  const auto items = iota(100);
  auto dataset = Dataset<int>::from(items, 4, scheduler);
  EXPECT_EQ(dataset.partition_count(), 4u);
  EXPECT_EQ(dataset.size(), 100u);
  for (const auto& partition : dataset.partitions()) {
    EXPECT_EQ(partition.size(), 25u);
  }
  // Order preserved across the concatenation.
  EXPECT_EQ(flatten(dataset), items);
}

TEST(Dataset, FromUnevenSplit) {
  auto scheduler = make_scheduler();
  auto dataset = Dataset<int>::from(iota(10), 4, scheduler);
  EXPECT_EQ(dataset.size(), 10u);
  EXPECT_EQ(flatten(dataset), iota(10));
}

TEST(Dataset, FromEmpty) {
  auto scheduler = make_scheduler();
  auto dataset = Dataset<int>::from(std::vector<int>{}, 4, scheduler);
  EXPECT_EQ(dataset.size(), 0u);
  EXPECT_TRUE(flatten(dataset).empty());
}

TEST(Dataset, ZeroPartitionsCoerced) {
  auto scheduler = make_scheduler();
  auto dataset = Dataset<int>::from(iota(5), 0, scheduler);
  EXPECT_EQ(dataset.partition_count(), 1u);
}

TEST(Dataset, MapPartitionsOnePerPartition) {
  auto scheduler = make_scheduler();
  auto dataset = Dataset<int>::from(iota(100), 4, scheduler);
  auto sums = dataset.map_partitions<long long>(
      [](std::size_t, const std::vector<int>& part) {
        long long sum = 0;
        for (int x : part) sum += x;
        return sum;
      },
      scheduler);
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), 0LL), 99LL * 100 / 2);
}

TEST(Dataset, FromPartitionsWrapsWithoutCopy) {
  std::vector<std::vector<int>> parts = {{1, 2}, {3}, {}};
  auto dataset = Dataset<int>::from_partitions(std::move(parts));
  EXPECT_EQ(dataset.partition_count(), 3u);
  EXPECT_EQ(dataset.size(), 3u);
  EXPECT_EQ(flatten(dataset), (std::vector<int>{1, 2, 3}));
}

TEST(Dataset, FromPartitionsEmptyGetsOnePartition) {
  auto dataset = Dataset<int>::from_partitions({});
  EXPECT_EQ(dataset.partition_count(), 1u);
}

TEST(Dataset, EachTransformationIsOneStage) {
  auto scheduler = make_scheduler();
  auto dataset = Dataset<int>::from(iota(10), 2, scheduler);  // stage 1
  const auto identity = [](std::size_t, const std::vector<int>& part) {
    return part;
  };
  dataset.map_partitions<std::vector<int>>(identity, scheduler);  // stage 2
  dataset.map_partitions<std::vector<int>>(identity, scheduler);  // stage 3
  EXPECT_EQ(scheduler.stages_run(), 3u);
}

TEST(Scheduler, StageOverheadIsCharged) {
  SchedulerConfig config;
  config.workers = 2;
  config.stage_overhead = std::chrono::microseconds(20000);  // 20 ms
  Scheduler scheduler(config);
  const auto start = std::chrono::steady_clock::now();
  scheduler.run_stage(2, [](std::size_t) {});
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 0.018);
}

}  // namespace
}  // namespace streamapprox::engine::batched
