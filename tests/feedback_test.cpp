// Tests for the adaptive feedback controller (§4.2).
#include "estimation/feedback.h"

#include <gtest/gtest.h>

#include <cmath>

namespace streamapprox::estimation {
namespace {

TEST(Feedback, GrowsWhenBoundTooLarge) {
  FeedbackController controller(0.01, 1000);
  const auto next = controller.update(0.02);  // 2x over target
  EXPECT_GT(next, 1000u);
}

TEST(Feedback, ShrinksWhenBoundComfortable) {
  FeedbackController controller(0.01, 1000);
  const auto next = controller.update(0.002);  // 5x better than needed
  EXPECT_LT(next, 1000u);
}

TEST(Feedback, ExactResultShrinksGently) {
  FeedbackController controller(0.01, 1000);
  const auto next = controller.update(0.0);
  EXPECT_LT(next, 1000u);
  EXPECT_GE(next, 500u);  // bounded by kMaxStep^kSmoothing
}

TEST(Feedback, RespectsBudgetBounds) {
  FeedbackController controller(0.01, 1000);
  // Huge error: the budget doubles per interval until the cap, 2^26, which
  // 1000 reaches in 17 intervals.
  for (int i = 0; i < 40; ++i) controller.update(1.0);
  EXPECT_EQ(controller.budget(), FeedbackController::kMaxBudget);
  // Tiny error: the budget halves per interval down to the floor, 16.
  for (int i = 0; i < 60; ++i) controller.update(1e-9);
  EXPECT_EQ(controller.budget(), FeedbackController::kMinBudget);
}

TEST(Feedback, InitialBudgetClamped) {
  EXPECT_EQ(FeedbackController(0.01, 1).budget(),
            FeedbackController::kMinBudget);
  EXPECT_EQ(FeedbackController(0.01, std::size_t{1} << 30).budget(),
            FeedbackController::kMaxBudget);
  EXPECT_EQ(FeedbackController(0.01, 1000).budget(), 1000u);
}

TEST(Feedback, StepIsBounded) {
  // One interval moves the budget by at most kMaxStep^kSmoothing = 4^0.5 =
  // 2x, however far the bound is from the target.
  FeedbackController controller(0.01, 1000);
  EXPECT_EQ(controller.update(10.0), 2000u);  // astronomically over target
  EXPECT_EQ(controller.update(1e-9), 1000u);  // astronomically under it
}

// Convergence: simulate a system whose observed bound follows the
// 1/sqrt(budget) law and verify the controller settles near the budget that
// meets the target.
TEST(Feedback, ConvergesToTargetBudget) {
  const double target = 0.01;
  // bound(budget) = c / sqrt(budget); with c chosen so budget*=10000 meets
  // the target exactly.
  const double c = target * std::sqrt(10000.0);
  FeedbackController controller(target, 500);
  std::size_t budget = controller.budget();
  for (int i = 0; i < 40; ++i) {
    const double bound = c / std::sqrt(static_cast<double>(budget));
    budget = controller.update(bound);
  }
  EXPECT_NEAR(static_cast<double>(budget), 10000.0, 1500.0);
  // And the achieved bound meets the target.
  EXPECT_LE(c / std::sqrt(static_cast<double>(budget)), target * 1.1);
}

}  // namespace
}  // namespace streamapprox::estimation
