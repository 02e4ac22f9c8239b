// Stratified estimators for approximate linear queries — the paper's §3.2
// (Eq. 2-4) point estimates with the §3.3 (Eq. 5-9) variance estimates.
//
// Estimators consume per-stratum summaries (C_i, Y_i, Σx, Σx²) so they are
// independent of the record type: any sampler output can be summarised with
// `summarize()`, and unsampled records with `ExactCells`, and fed through
// here. All computation is O(#strata).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "estimation/approx_result.h"
#include "sampling/sample.h"

namespace streamapprox::estimation {

/// Sufficient statistics of one stratum's sample for linear-query estimation.
struct StratumSummary {
  sampling::StratumId stratum = 0;
  std::uint64_t seen = 0;      ///< C_i: items received in the interval
  std::uint64_t sampled = 0;   ///< Y_i: items selected
  double sum = 0.0;            ///< Σ_j I_ij over sampled items
  double sum_sq = 0.0;         ///< Σ_j I_ij² over sampled items
  double weight = 1.0;         ///< W_i per Eq. 1

  /// Sample mean Ī_i (0 when empty).
  double mean() const noexcept {
    return sampled == 0 ? 0.0 : sum / static_cast<double>(sampled);
  }

  /// Unbiased sample variance s_i² (Eq. 7); 0 when fewer than two samples.
  double sample_variance() const noexcept {
    if (sampled < 2) return 0.0;
    const double n = static_cast<double>(sampled);
    const double centered = sum_sq - sum * sum / n;
    return centered > 0.0 ? centered / (n - 1.0) : 0.0;
  }
};

/// Builds summaries from a stratified sample, extracting each item's numeric
/// value with `value`.
template <typename T, typename ValueFn>
std::vector<StratumSummary> summarize(
    const sampling::StratifiedSample<T>& sample, ValueFn value) {
  std::vector<StratumSummary> out;
  out.reserve(sample.strata.size());
  for (const auto& stratum : sample.strata) {
    StratumSummary s;
    s.stratum = stratum.stratum;
    s.seen = stratum.seen;
    s.sampled = stratum.items.size();
    s.weight = stratum.weight;
    for (const auto& item : stratum.items) {
      const double x = static_cast<double>(value(item));
      s.sum += x;
      s.sum_sq += x * x;
    }
    out.push_back(s);
  }
  return out;
}

/// Exact per-stratum cells of unsampled records: every value added counts as
/// seen and sampled, so each cell has weight 1 and the estimators below
/// return its exact answer with zero variance. The ground truth and the
/// no-sampling baselines build their cells with it.
class ExactCells {
 public:
  /// Adds one record's value to its stratum's cell.
  void add(sampling::StratumId stratum, double value) {
    auto& cell = cells_[stratum];
    cell.stratum = stratum;
    ++cell.seen;
    ++cell.sampled;
    cell.sum += value;
    cell.sum_sq += value * value;
  }

  /// Hands out the cells in the map's iteration order and clears the map.
  std::vector<StratumSummary> take() {
    std::vector<StratumSummary> out;
    out.reserve(cells_.size());
    for (const auto& [stratum, cell] : cells_) out.push_back(cell);
    cells_.clear();
    return out;
  }

 private:
  std::unordered_map<sampling::StratumId, StratumSummary> cells_;
};

/// Approximate SUM over all strata: Eq. 2-3 point estimate with Eq. 6
/// variance. Strata with C_i <= Y_i (fully observed) contribute zero
/// variance, as the theory requires.
ApproxResult estimate_sum(const std::vector<StratumSummary>& strata);

/// Approximate MEAN over all strata: Eq. 4/8 point estimate with Eq. 9
/// variance.
ApproxResult estimate_mean(const std::vector<StratumSummary>& strata);

/// Approximate COUNT of all items (Σ Y_i·W_i with the per-stratum weights;
/// equals Σ C_i exactly when weights follow Eq. 1 — kept as a consistency
/// check and for samplers whose counters are themselves estimates).
ApproxResult estimate_count(const std::vector<StratumSummary>& strata);

}  // namespace streamapprox::estimation
