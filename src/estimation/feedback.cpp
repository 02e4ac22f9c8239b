#include "estimation/feedback.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

FeedbackBank::FeedbackBank(std::size_t initial_budget)
    : initial_budget_(initial_budget) {}

std::size_t FeedbackBank::add_target(double target_relative_error) {
  return add_target(target_relative_error, initial_budget_);
}

std::size_t FeedbackBank::add_target(double target_relative_error,
                                     std::size_t seed_budget) {
  const std::size_t id = next_id_++;
  controllers_.push_back(
      Slot{id, FeedbackController(target_relative_error, seed_budget)});
  return id;
}

bool FeedbackBank::remove_target(std::size_t id) {
  for (auto it = controllers_.begin(); it != controllers_.end(); ++it) {
    if (it->id == id) {
      controllers_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t FeedbackBank::update_targets(
    const std::vector<std::pair<std::size_t, double>>& observed_by_id) {
  for (const auto& [id, bound] : observed_by_id) {
    bool found = false;
    for (auto& slot : controllers_) {
      if (slot.id == id) {
        slot.controller.update(bound);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument(
          "FeedbackBank::update_targets: unknown controller id");
    }
  }
  return budget();
}

std::size_t FeedbackBank::budget() const noexcept {
  if (controllers_.empty()) return initial_budget_;
  std::size_t max_budget = 0;
  for (const auto& slot : controllers_) {
    max_budget = std::max(max_budget, slot.controller.budget());
  }
  return max_budget;
}

}  // namespace streamapprox::estimation
