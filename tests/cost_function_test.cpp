// Tests for the virtual cost function (§7): every budget kind it sizes maps
// to a sensible sample size, and an accuracy budget is left to the feedback
// loop.
#include "estimation/cost_function.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace streamapprox::estimation {
namespace {

TEST(CostFunction, FractionBudget) {
  CostFunction cost;
  EXPECT_EQ(cost.sample_size(QueryBudget::fraction(0.5), 1000), 500u);
  EXPECT_EQ(cost.sample_size(QueryBudget::fraction(1.0), 1000), 1000u);
  EXPECT_EQ(cost.sample_size(QueryBudget::fraction(0.0), 1000), 0u);
  // Fractions beyond [0,1] are clamped.
  EXPECT_EQ(cost.sample_size(QueryBudget::fraction(1.5), 1000), 1000u);
}

TEST(CostFunction, LatencyBudgetUsesModelThroughput) {
  CostModel model;
  model.items_per_ms_per_worker = 100.0;
  model.workers = 4;
  CostFunction cost(model);
  // 10 ms * 100 items/ms * 4 workers = 4000 items max.
  EXPECT_EQ(cost.sample_size(QueryBudget::latency_ms(10.0), 100000), 4000u);
  // Capacity above arrivals: everything fits.
  EXPECT_EQ(cost.sample_size(QueryBudget::latency_ms(10.0), 2000), 2000u);
}

TEST(CostFunction, TokenBudgetPulsarStyle) {
  CostModel model;
  model.tokens_per_item = 2.0;
  CostFunction cost(model);
  EXPECT_EQ(cost.sample_size(QueryBudget::tokens(1000.0), 100000), 500u);
  EXPECT_EQ(cost.sample_size(QueryBudget::tokens(1e9), 1234), 1234u);
}

// The feedback loop alone sizes an accuracy budget (PipelineDriver never
// asks the cost function for one), so the cost function refuses it rather
// than answer with a second, unused sizing rule.
TEST(CostFunction, RelativeErrorBudgetIsTheFeedbackLoops) {
  CostFunction cost;
  EXPECT_THROW(cost.sample_size(QueryBudget::relative_error(0.01), 10000),
               std::invalid_argument);
}

}  // namespace
}  // namespace streamapprox::estimation
