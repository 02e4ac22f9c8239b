// Tests for the adaptive feedback controller (§4.2).
#include "estimation/feedback.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

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

// --------------------------------------------------------------------------
// FeedbackBank: one controller per accuracy-targeted query; the budget in
// force is the max across controllers (multi-query execution samples the
// stream once, so the strictest query pays for everyone).

TEST(FeedbackBank, EmptyBankKeepsInitialBudget) {
  FeedbackBank bank(777);
  EXPECT_TRUE(bank.empty());
  EXPECT_EQ(bank.budget(), 777u);
  EXPECT_EQ(bank.update_targets({}), 777u);
}

TEST(FeedbackBank, SingleTargetMatchesPlainController) {
  // A single targeted query must be reproduced exactly: one target in the
  // bank follows the standalone controller's trajectory bit for bit.
  FeedbackController controller(0.01, 1024);
  FeedbackBank bank(1024);
  const std::size_t id = bank.add_target(0.01);
  ASSERT_EQ(bank.size(), 1u);
  double bound = 0.05;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(bank.update_targets({{id, bound}}), controller.update(bound));
    bound *= 0.7;
  }
}

TEST(FeedbackBank, StrictestTargetWins) {
  // A loose query (happy at tiny budgets) and a strict query: the resolved
  // budget must track the strict controller's demand.
  FeedbackBank bank(1024);
  const std::size_t loose = bank.add_target(0.5);
  const std::size_t strict = bank.add_target(0.001);
  FeedbackController strict_alone(0.001, 1024);
  double bound = 0.02;
  for (int i = 0; i < 8; ++i) {
    // Both queries observe the same bound (same sampled stream).
    EXPECT_EQ(bank.update_targets({{loose, bound}, {strict, bound}}),
              strict_alone.update(bound));
    bound *= 0.9;
  }
  EXPECT_GT(bank.budget(), 1024u);
}

TEST(FeedbackBank, IndependentBoundsPerTarget) {
  // Queries may observe different bounds (e.g. different z): each controller
  // consumes its own term and the max is returned.
  FeedbackBank bank(1000);
  const std::size_t first = bank.add_target(0.01);
  const std::size_t second = bank.add_target(0.01);
  // Query 0 is exactly on target (budget holds); query 1 is 2x over (budget
  // quadruples, damped): the max follows query 1.
  const std::size_t next =
      bank.update_targets({{first, 0.01}, {second, 0.02}});
  FeedbackController over(0.01, 1000);
  EXPECT_EQ(next, over.update(0.02));
}

TEST(FeedbackBank, RemoveTargetRetiresItsControllerOnly) {
  // Dynamic detach: removing one controller by stable id leaves the others'
  // ids (and trajectories) untouched, and the rebuilt budget is the max over
  // the survivors.
  FeedbackBank bank(1024);
  const std::size_t loose = bank.add_target(0.5);
  const std::size_t strict = bank.add_target(0.001);
  bank.update_targets({{loose, 0.02}, {strict, 0.02}});
  const std::size_t inflated = bank.budget();
  EXPECT_GT(inflated, 1024u);
  EXPECT_TRUE(bank.remove_target(strict));
  EXPECT_FALSE(bank.remove_target(strict));  // already gone
  ASSERT_EQ(bank.size(), 1u);
  EXPECT_LT(bank.budget(), inflated);  // the strict demand retired with it
  // The survivor's stable id still addresses it...
  bank.update_targets({{loose, 0.4}});
  // ...and the retired id is rejected loudly rather than misrouted.
  EXPECT_THROW(bank.update_targets({{strict, 0.02}}),
               std::invalid_argument);
}

TEST(FeedbackBank, MidStreamTargetSeedsAtGivenBudget) {
  // A query attached mid-stream joins at the budget currently in force, not
  // at the bank's cold-start value (budget continuity).
  FeedbackBank bank(1024);
  const std::size_t id = bank.add_target(0.01, /*seed_budget=*/9000);
  (void)id;
  EXPECT_EQ(bank.budget(), 9000u);
}

}  // namespace
}  // namespace streamapprox::estimation
