// The "virtual cost function" of paper §2.3/§7: translates a user-specified
// query budget into a per-interval sample size. The paper assumes such a
// function exists; we implement three of the mechanisms §7 sketches — a
// plain sampling fraction, a latency budget over a throughput model, and a
// Pulsar-style resource-token budget. An accuracy budget is not sized here:
// the adaptive feedback loop (estimation/feedback.h, paper §4.2) grows the
// sample until the observed error bound meets the target.
#pragma once

#include <cstddef>
#include <cstdint>

namespace streamapprox::estimation {

/// What the user constrains; mirrors §2.1 "latency/throughput guarantees,
/// available computing resources, or the accuracy level of query results".
enum class BudgetKind {
  kSampleFraction,   ///< directly: keep `value` in (0,1] of the stream
  kLatencyMs,        ///< finish each interval's job within `value` ms
  kResourceTokens,   ///< spend at most `value` processing tokens per interval
  kRelativeError,    ///< 95%-confidence relative error of SUM <= `value`
};

/// A query budget: a kind plus its magnitude.
struct QueryBudget {
  BudgetKind kind = BudgetKind::kSampleFraction;
  double value = 1.0;

  /// Convenience constructors.
  static QueryBudget fraction(double f) {
    return {BudgetKind::kSampleFraction, f};
  }
  static QueryBudget latency_ms(double ms) {
    return {BudgetKind::kLatencyMs, ms};
  }
  static QueryBudget tokens(double t) {
    return {BudgetKind::kResourceTokens, t};
  }
  static QueryBudget relative_error(double e) {
    return {BudgetKind::kRelativeError, e};
  }
};

/// The execution substrate's assumed cost, used by the latency and token
/// budgets. Fixed and conservative: nothing measures or updates them at run
/// time.
inline constexpr double kRecordsPerMsPerWorker = 1000.0;
inline constexpr double kTokensPerRecord = 1.0;

/// Computes the sample size for the next interval from `expected_items`,
/// the anticipated number of arrivals in it (typically the previous
/// interval's count). A latency budget of t ms allows
/// t · kRecordsPerMsPerWorker · `workers` records (0 workers count as 1).
/// Throws std::invalid_argument for a `relative_error` budget, which the
/// feedback loop sizes.
std::size_t sample_size(const QueryBudget& budget,
                        std::uint64_t expected_items, std::size_t workers);

}  // namespace streamapprox::estimation
