// Determinism and invariance properties across the whole stack:
//  * identical seeds => identical samples, estimates and bench workloads;
//  * worker count must not change WHAT is computed (only how fast);
//  * sampler output must be invariant to broker partitioning.
#include <gtest/gtest.h>

#include "core/query.h"
#include "core/systems.h"
#include "sampling/oasrs.h"
#include "sampling/scasrs.h"
#include "workload/synthetic.h"

namespace streamapprox::core {
namespace {

using engine::Record;

std::vector<Record> stream(std::uint64_t seed) {
  workload::SyntheticStream generator(workload::gaussian_substreams(30000.0),
                                      seed);
  return generator.generate(3.0);
}

SystemConfig config_with_workers(std::size_t workers) {
  SystemConfig config;
  config.sampling_fraction = 0.4;
  config.workers = workers;
  config.batch_interval_us = 250'000;
  config.window = {1'000'000, 500'000};
  config.query_cost = engine::QueryCost{0};
  config.stage_overhead = std::chrono::microseconds(0);
  return config;
}

TEST(Determinism, OasrsSameSeedSameSample) {
  const auto records = stream(1);
  for (int run = 0; run < 2; ++run) {
    sampling::OasrsConfig config;
    config.total_budget = 1000;
    config.seed = 77;
    auto a = sampling::make_oasrs<Record>(config);
    auto b = sampling::make_oasrs<Record>(config);
    for (const auto& record : records) {
      a.offer(record);
      b.offer(record);
    }
    const auto sa = a.take();
    const auto sb = b.take();
    ASSERT_EQ(sa.strata.size(), sb.strata.size());
    for (std::size_t i = 0; i < sa.strata.size(); ++i) {
      EXPECT_EQ(sa.strata[i].items, sb.strata[i].items);
      EXPECT_EQ(sa.strata[i].seen, sb.strata[i].seen);
    }
  }
}

TEST(Determinism, ScaSrsSameRngStateSameSample) {
  const auto records = stream(2);
  streamapprox::Rng rng_a(123);
  streamapprox::Rng rng_b(123);
  const auto a = sampling::scasrs_sample(records, 0.3, rng_a);
  const auto b = sampling::scasrs_sample(records, 0.3, rng_b);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.weight, b.weight);
}

TEST(Determinism, RunSystemSameConfigSameWindows) {
  const auto records = stream(3);
  const auto config = config_with_workers(2);
  const auto first = run_system(SystemKind::kSparkApprox, records, config);
  const auto second = run_system(SystemKind::kSparkApprox, records, config);
  ASSERT_EQ(first.windows.size(), second.windows.size());
  QuerySpec query{Aggregation::kSum, false};
  const auto ea = evaluate_windows(first.windows, query);
  const auto eb = evaluate_windows(second.windows, query);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i].overall.estimate, eb[i].overall.estimate);
  }
}

class WorkerInvariance : public ::testing::TestWithParam<SystemKind> {};

TEST_P(WorkerInvariance, EstimatesAgreeAcrossWorkerCounts) {
  // Different worker counts change sampling randomness but must leave the
  // estimates statistically equivalent: both runs within 1% of exact.
  const auto records = stream(4);
  const auto exact = exact_window_results(records, {1'000'000, 500'000});
  QuerySpec query{Aggregation::kSum, false};
  const auto exact_estimates = evaluate_windows(exact, query);
  for (std::size_t workers : {1u, 3u, 8u}) {
    const auto result =
        run_system(GetParam(), records, config_with_workers(workers));
    const double loss = mean_accuracy_loss(
        evaluate_windows(result.windows, query), exact_estimates, query);
    EXPECT_LT(loss, 0.01) << system_name(GetParam()) << " workers="
                          << workers;
    EXPECT_EQ(result.records_processed, records.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, WorkerInvariance,
    ::testing::Values(SystemKind::kSparkApprox, SystemKind::kFlinkApprox,
                      SystemKind::kSparkSTS),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name = system_name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Invariance, PartitionCountDoesNotChangeBatchedResults) {
  const auto records = stream(5);
  QuerySpec query{Aggregation::kSum, false};
  const auto exact = exact_window_results(records, {1'000'000, 500'000});
  const auto exact_estimates = evaluate_windows(exact, query);
  for (std::size_t partitions : {1u, 4u, 16u}) {
    auto config = config_with_workers(4);
    config.partitions = partitions;
    const auto result =
        run_system(SystemKind::kNativeSpark, records, config);
    const double loss = mean_accuracy_loss(
        evaluate_windows(result.windows, query), exact_estimates, query);
    EXPECT_NEAR(loss, 0.0, 1e-12) << "partitions=" << partitions;
  }
}

TEST(Invariance, StsNonExactVariantStillAccurate) {
  const auto records = stream(6);
  auto config = config_with_workers(4);
  config.sts_exact = false;  // sampleByKey (Bernoulli per stratum)
  const auto result = run_system(SystemKind::kSparkSTS, records, config);
  const auto exact = exact_window_results(records, config.window);
  QuerySpec query{Aggregation::kSum, false};
  const double loss =
      mean_accuracy_loss(evaluate_windows(result.windows, query),
                         evaluate_windows(exact, query), query);
  EXPECT_LT(loss, 0.02);
}

}  // namespace
}  // namespace streamapprox::core
