// Adaptive feedback between the error-estimation module and the sampling
// module (paper §4.2: "In cases where the error bound is larger than the
// specified target, an adaptive feedback mechanism is activated to increase
// the sample size"). A damped multiplicative controller exploiting the
// 1/sqrt(Y) error law: doubling accuracy needs 4x the sample.
#pragma once

#include <cstddef>
#include <vector>

namespace streamapprox::estimation {

/// Re-tunes the per-interval sample budget from observed error bounds.
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

/// Multi-query feedback: one FeedbackController per accuracy-targeted query,
/// resolved into a single per-interval budget as the MAX across controllers
/// — the strictest registered query drives the sample size, because the
/// stream is sampled once no matter how many queries consume it.
///
/// Controllers may be added and removed while the bank is live (the dynamic
/// query lifecycle attaches/detaches targeted queries on a running
/// pipeline); every controller is addressed by the STABLE id returned from
/// add_target, which never shifts when another controller is removed. The
/// bank itself is not thread-safe — the slide-lifecycle thread owns it, and
/// membership changes reach it only at slide-close boundaries.
class FeedbackBank {
 public:
  /// Creates an empty bank whose controllers start at `initial_budget`
  /// unless add_target names a seed.
  explicit FeedbackBank(std::size_t initial_budget);

  /// Registers a controller for one query's relative-error target, seeded at
  /// the bank's initial budget; returns its stable id (pass it to
  /// update_targets / remove_target).
  std::size_t add_target(double target_relative_error);

  /// Registers a controller seeded at `seed_budget` instead of the initial
  /// budget — budget continuity for a query attached mid-stream (its
  /// controller starts from the budget currently in force, not from the
  /// cold-start value).
  std::size_t add_target(double target_relative_error,
                         std::size_t seed_budget);

  /// Retires the controller with stable id `id` (a detached query takes its
  /// accuracy demand with it; the max over the remaining controllers is the
  /// rebuilt budget). Returns false when no such controller exists.
  bool remove_target(std::size_t id);

  /// True when no query registered an accuracy target.
  bool empty() const noexcept { return controllers_.empty(); }

  /// Number of registered controllers.
  std::size_t size() const noexcept { return controllers_.size(); }

  /// Update by stable id: feeds each (id, observed bound) pair to its
  /// controller — controllers not named keep their budget (a freshly
  /// attached query whose first whole window has not assembled yet has no
  /// bound to report) — and returns the rebuilt max budget. Throws
  /// std::invalid_argument on an unknown id; an id can never silently feed
  /// the wrong controller, however membership shifted.
  std::size_t update_targets(
      const std::vector<std::pair<std::size_t, double>>& observed_by_id);

  /// The budget currently in force: max across controllers, or the initial
  /// budget when the bank is empty.
  std::size_t budget() const noexcept;

 private:
  /// A live controller plus the stable id it was registered under.
  struct Slot {
    std::size_t id;
    FeedbackController controller;
  };

  std::size_t initial_budget_;
  std::size_t next_id_ = 0;
  std::vector<Slot> controllers_;  ///< registration order, ids stable
};

}  // namespace streamapprox::estimation
