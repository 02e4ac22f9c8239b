// Tests for the virtual cost function (§7): every budget kind it sizes maps
// to a sensible sample size, and an accuracy budget is left to the feedback
// loop.
#include "estimation/cost_function.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace streamapprox::estimation {
namespace {

TEST(CostFunction, FractionBudget) {
  EXPECT_EQ(sample_size(QueryBudget::fraction(0.5), 1000, 1), 500u);
  EXPECT_EQ(sample_size(QueryBudget::fraction(1.0), 1000, 1), 1000u);
  EXPECT_EQ(sample_size(QueryBudget::fraction(0.0), 1000, 1), 0u);
  // Fractions beyond [0,1] are clamped.
  EXPECT_EQ(sample_size(QueryBudget::fraction(1.5), 1000, 1), 1000u);
}

// A latency budget allows each worker kRecordsPerMsPerWorker records per ms.
TEST(CostFunction, LatencyBudgetScalesWithWorkers) {
  // 10 ms * 1000 records/ms = 10 000 records per worker.
  EXPECT_EQ(sample_size(QueryBudget::latency_ms(10.0), 100000, 1), 10000u);
  EXPECT_EQ(sample_size(QueryBudget::latency_ms(10.0), 100000, 4), 40000u);
  // Zero workers count as one.
  EXPECT_EQ(sample_size(QueryBudget::latency_ms(10.0), 100000, 0), 10000u);
  // Capacity above arrivals: everything fits.
  EXPECT_EQ(sample_size(QueryBudget::latency_ms(10.0), 2000, 4), 2000u);
}

TEST(CostFunction, TokenBudgetPulsarStyle) {
  // One token per record, whatever the worker count.
  EXPECT_EQ(sample_size(QueryBudget::tokens(1000.0), 100000, 1), 1000u);
  EXPECT_EQ(sample_size(QueryBudget::tokens(1000.0), 100000, 4), 1000u);
  EXPECT_EQ(sample_size(QueryBudget::tokens(1e9), 1234, 1), 1234u);
}

// The feedback loop alone sizes an accuracy budget (PipelineDriver never
// asks the cost function for one), so the cost function refuses it rather
// than answer with a second, unused sizing rule.
TEST(CostFunction, RelativeErrorBudgetIsTheFeedbackLoops) {
  EXPECT_THROW(sample_size(QueryBudget::relative_error(0.01), 10000, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace streamapprox::estimation
