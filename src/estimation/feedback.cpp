#include "estimation/feedback.h"

#include <algorithm>
#include <cmath>

namespace streamapprox::estimation {

FeedbackController::FeedbackController(double target_relative_error,
                                       std::size_t initial_budget)
    : target_(target_relative_error),
      budget_(std::clamp(initial_budget, kMinBudget, kMaxBudget)) {}

std::size_t FeedbackController::update(double observed_relative_bound) {
  double scale = 0.0;
  if (observed_relative_bound <= 0.0) {
    // Interval was exact (e.g. every stratum fully observed): we can afford
    // to shrink gently and reclaim resources.
    scale = 0.5;
  } else {
    // Relative bound scales ~ 1/sqrt(budget): to move the bound from
    // `observed` to `target`, scale the budget by (observed/target)².
    const double ratio = observed_relative_bound / target_;
    scale = ratio * ratio;
  }
  scale = std::clamp(scale, 1.0 / kMaxStep, kMaxStep);
  const double damped = std::pow(scale, kSmoothing);  // EWMA in log space
  const double next = static_cast<double>(budget_) * damped;
  budget_ = std::clamp(static_cast<std::size_t>(std::llround(next)),
                       kMinBudget, kMaxBudget);
  return budget_;
}

}  // namespace streamapprox::estimation
