// Approximate HISTOGRAM queries (paper §3.2 lists histogram among the
// supported linear aggregations): each bucket's mass is a weighted COUNT, so
// adding every sampled item with its stratum weight W_i statistically
// recreates the population histogram. Unlike SUM/MEAN, histograms need the
// sampled values themselves, so estimation happens where the sample is
// still materialised: core::HistogramSink's slide hook receives the closed
// slide's stratified sample and keeps a window-aligned ring of per-slide
// histograms (register one via core::QuerySet::histogram).
#pragma once

#include <cstddef>

#include "common/histogram.h"
#include "sampling/sample.h"

namespace streamapprox::estimation {

/// Shape of a histogram query: `buckets` equal-width bins over [lo, hi).
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t buckets = 20;
};

/// Builds the weighted (population-scale) histogram of a stratified sample:
/// every sampled item contributes W_i mass, so bucket totals estimate the
/// full-population counts and the histogram's total() estimates Σ C_i.
template <typename T, typename ValueFn>
Histogram weighted_histogram(const sampling::StratifiedSample<T>& sample,
                             ValueFn value, const HistogramSpec& spec) {
  Histogram histogram(spec.lo, spec.hi, spec.buckets);
  for (const auto& stratum : sample.strata) {
    for (const auto& item : stratum.items) {
      histogram.add(static_cast<double>(value(item)), stratum.weight);
    }
  }
  return histogram;
}

}  // namespace streamapprox::estimation
