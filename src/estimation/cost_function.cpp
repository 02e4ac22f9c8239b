#include "estimation/cost_function.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace streamapprox::estimation {

std::size_t sample_size(const QueryBudget& budget,
                        std::uint64_t expected_items, std::size_t workers) {
  const double expected = static_cast<double>(expected_items);
  switch (budget.kind) {
    case BudgetKind::kSampleFraction: {
      const double f = std::clamp(budget.value, 0.0, 1.0);
      return static_cast<std::size_t>(std::ceil(f * expected));
    }
    case BudgetKind::kLatencyMs: {
      const double capacity =
          budget.value * kRecordsPerMsPerWorker *
          static_cast<double>(std::max<std::size_t>(1, workers));
      return static_cast<std::size_t>(
          std::max(1.0, std::min(expected, capacity)));
    }
    case BudgetKind::kResourceTokens: {
      const double capacity = budget.value / kTokensPerRecord;
      return static_cast<std::size_t>(
          std::max(1.0, std::min(expected, capacity)));
    }
    case BudgetKind::kRelativeError:
      throw std::invalid_argument(
          "sample_size: relative_error budgets are sized by the feedback "
          "loop, not the cost function");
  }
  return expected_items;
}

}  // namespace streamapprox::estimation
