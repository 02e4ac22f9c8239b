// Adaptive feedback between the error-estimation module and the sampling
// module (paper §4.2: "In cases where the error bound is larger than the
// specified target, an adaptive feedback mechanism is activated to increase
// the sample size"). A damped multiplicative controller exploiting the
// 1/sqrt(Y) error law: doubling accuracy needs 4x the sample.
#pragma once

#include <cstddef>

namespace streamapprox::estimation {

/// Re-tunes the per-interval sample budget from observed error bounds.
/// PipelineDriver keeps one beside each accuracy-targeted query and samples
/// at the max of their budgets, so the strictest query wins.
class FeedbackController {
 public:
  /// EWMA factor on budget updates, applied in log space.
  static constexpr double kSmoothing = 0.5;
  /// Max multiplicative change per interval before smoothing, so one
  /// interval moves the budget by at most kMaxStep^kSmoothing = 2x.
  static constexpr double kMaxStep = 4.0;
  /// Bounds every budget the controller starts at or returns.
  static constexpr std::size_t kMinBudget = 16;
  static constexpr std::size_t kMaxBudget = std::size_t{1} << 26;

  /// Creates a controller for `target_relative_error` (the desired 95 %
  /// relative bound) starting at `initial_budget` samples/interval.
  FeedbackController(double target_relative_error,
                     std::size_t initial_budget);

  /// Reports the observed relative error bound of the last interval and
  /// returns the budget to use for the next interval. Error bound <= 0 (an
  /// exact interval) shrinks the budget toward kMinBudget.
  std::size_t update(double observed_relative_bound);

  /// Budget currently in force.
  std::size_t budget() const noexcept { return budget_; }

 private:
  double target_;
  std::size_t budget_;
};

}  // namespace streamapprox::estimation
