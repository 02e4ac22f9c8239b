#include "core/query.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/stats.h"
#include "estimation/estimators.h"
#include "sketch/sketch_sink.h"

namespace streamapprox::core {
namespace {

using estimation::ApproxResult;
using estimation::StratumSummary;

ApproxResult aggregate(const std::vector<StratumSummary>& cells,
                       Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kSum:
      return estimation::estimate_sum(cells);
    case Aggregation::kMean:
      return estimation::estimate_mean(cells);
    case Aggregation::kCount:
      return estimation::estimate_count(cells);
  }
  return {};
}

}  // namespace

// ------------------------------------------------------------ AggregateSink

QueryOutput AggregateSink::evaluate(const engine::WindowResult& window) {
  QueryOutput output;
  output.name = name_;
  output.z = resolved_z_;
  output.estimate = evaluate_window(window, spec_);
  output.observed_relative_bound =
      output.estimate.overall.relative_bound(resolved_z_);
  return output;
}

std::unique_ptr<QuerySink> AggregateSink::clone() const {
  auto sink = std::make_unique<AggregateSink>(name_, spec_);
  sink->z_ = z_;
  sink->target_ = target_;
  return sink;
}

// ------------------------------------------------------------ HistogramSink

void HistogramSink::bind(const engine::WindowConfig& window,
                         double default_z) {
  QuerySink::bind(window, default_z);
  slides_per_window_ = std::max<std::size_t>(1, window.slides_per_window());
  ring_.clear();
}

void HistogramSink::on_slide(
    const std::vector<estimation::StratumSummary>& cells,
    const sampling::StratifiedSample<engine::Record>* sample,
    const sketch::SlideSketches* sketches) {
  (void)cells;
  (void)sketches;
  // Per-slide weighted histograms; the window histogram is the merge of its
  // slides'. An empty slide contributes an empty histogram, so the ring
  // stays window-aligned.
  ring_.push_back(
      estimation::weighted_histogram(*sample, engine::RecordValue{}, spec_));
  if (ring_.size() > slides_per_window_) ring_.erase(ring_.begin());
}

QueryOutput HistogramSink::evaluate(const engine::WindowResult& window) {
  QueryOutput output;
  output.name = name_;
  output.z = resolved_z_;
  output.estimate.window_start_us = window.window_start_us;
  output.estimate.window_end_us = window.window_end_us;
  // The histogram's mass estimates full-population counts; the matching
  // point estimate is the weighted COUNT the mass speaks for. COUNT's
  // variance is identically zero under Eq.-1 weights, so the feedback term
  // uses the SUM bound instead — the accuracy budget is defined as the
  // relative error of SUM (estimation::BudgetKind::kRelativeError), and it
  // actually responds to the sample size.
  output.estimate.overall = estimation::estimate_count(window.cells);
  output.observed_relative_bound =
      estimation::estimate_sum(window.cells).relative_bound(resolved_z_);
  Histogram merged(spec_.lo, spec_.hi, spec_.buckets);
  for (const auto& slide : ring_) merged.merge(slide);
  output.histogram = std::move(merged);
  return output;
}

std::unique_ptr<QuerySink> HistogramSink::clone() const {
  auto sink = std::make_unique<HistogramSink>(name_, spec_);
  sink->z_ = z_;
  sink->target_ = target_;
  return sink;
}

// ----------------------------------------------------------------- QuerySet

QuerySet& QuerySet::operator=(const QuerySet& other) {
  if (this != &other) sinks_ = other.clone_sinks();
  return *this;
}

QuerySet& QuerySet::add(std::unique_ptr<QuerySink> sink) {
  sinks_.push_back(std::move(sink));
  return *this;
}

QuerySet& QuerySet::aggregate(std::string name, QuerySpec spec,
                              std::optional<double> z,
                              std::optional<double> accuracy_target) {
  auto sink = std::make_unique<AggregateSink>(std::move(name), spec);
  if (z) sink->set_z(*z);
  if (accuracy_target) sink->set_accuracy_target(*accuracy_target);
  return add(std::move(sink));
}

QuerySet& QuerySet::histogram(std::string name,
                              estimation::HistogramSpec spec,
                              std::optional<double> z) {
  auto sink = std::make_unique<HistogramSink>(std::move(name), spec);
  if (z) sink->set_z(*z);
  return add(std::move(sink));
}

QuerySet& QuerySet::sketch(std::string name, sketch::SketchSpec spec,
                           std::vector<double> quantiles) {
  return add(std::make_unique<sketch::SketchSink>(std::move(name), spec,
                                                  std::move(quantiles)));
}

std::vector<std::unique_ptr<QuerySink>> QuerySet::clone_sinks() const {
  std::vector<std::unique_ptr<QuerySink>> clones;
  clones.reserve(sinks_.size());
  for (const auto& sink : sinks_) clones.push_back(sink->clone());
  return clones;
}

// --------------------------------------------------------------- evaluation

WindowEstimate evaluate_window(const engine::WindowResult& window,
                               const QuerySpec& query) {
  WindowEstimate estimate;
  estimate.window_start_us = window.window_start_us;
  estimate.window_end_us = window.window_end_us;
  estimate.overall = aggregate(window.cells, query.aggregation);
  if (query.per_stratum) {
    // Partition the cells by stratum, keeping deterministic (sorted) group
    // order, then estimate each group independently.
    std::map<sampling::StratumId, std::vector<StratumSummary>> by_stratum;
    for (const auto& cell : window.cells) {
      by_stratum[cell.stratum].push_back(cell);
    }
    estimate.groups.reserve(by_stratum.size());
    for (const auto& [stratum, cells] : by_stratum) {
      estimate.groups.emplace_back(stratum,
                                   aggregate(cells, query.aggregation));
    }
  }
  return estimate;
}

std::vector<WindowEstimate> evaluate_windows(
    const std::vector<engine::WindowResult>& windows,
    const QuerySpec& query) {
  std::vector<WindowEstimate> estimates;
  estimates.reserve(windows.size());
  for (const auto& window : windows) {
    estimates.push_back(evaluate_window(window, query));
  }
  return estimates;
}

std::vector<engine::WindowResult> exact_window_results(
    const std::vector<engine::Record>& records,
    const engine::WindowConfig& window) {
  // split_by_interval needs event-time order; sorted input (what the
  // workload generators produce) costs one scan and no copy.
  const auto by_time = [](const engine::Record& a, const engine::Record& b) {
    return a.event_time_us < b.event_time_us;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_time)) {
    std::vector<engine::Record> sorted = records;
    std::stable_sort(sorted.begin(), sorted.end(), by_time);
    return exact_window_results(sorted, window);
  }
  engine::SlidingWindowAssembler assembler(window);
  std::vector<engine::WindowResult> windows;

  const auto ranges = engine::split_by_interval(records, window.slide_us);
  for (const auto& [begin, end] : ranges) {
    estimation::ExactCells cells;
    for (std::size_t i = begin; i < end; ++i) {
      cells.add(records[i].stratum, records[i].value);
    }
    if (auto result = assembler.push_slide(cells.take())) {
      windows.push_back(std::move(*result));
    }
  }
  return windows;
}

double mean_accuracy_loss(const std::vector<WindowEstimate>& approx,
                          const std::vector<WindowEstimate>& exact,
                          const QuerySpec& query) {
  std::unordered_map<std::int64_t, const WindowEstimate*> exact_by_end;
  exact_by_end.reserve(exact.size());
  for (const auto& w : exact) exact_by_end[w.window_end_us] = &w;

  double total_loss = 0.0;
  std::size_t terms = 0;
  for (const auto& w : approx) {
    auto it = exact_by_end.find(w.window_end_us);
    if (it == exact_by_end.end()) continue;
    const WindowEstimate& truth = *it->second;
    if (query.per_stratum) {
      std::unordered_map<sampling::StratumId, double> exact_groups;
      for (const auto& [stratum, result] : truth.groups) {
        exact_groups[stratum] = result.estimate;
      }
      std::unordered_map<sampling::StratumId, double> approx_groups;
      for (const auto& [stratum, result] : w.groups) {
        approx_groups[stratum] = result.estimate;
      }
      // Every group present in the ground truth counts; a group the sampled
      // system missed entirely contributes its full relative error of 1.
      for (const auto& [stratum, exact_value] : exact_groups) {
        if (exact_value == 0.0) continue;
        const auto found = approx_groups.find(stratum);
        const double approx_value =
            found == approx_groups.end() ? 0.0 : found->second;
        total_loss += relative_error(approx_value, exact_value);
        ++terms;
      }
    } else {
      if (truth.overall.estimate == 0.0) continue;
      total_loss += relative_error(w.overall.estimate, truth.overall.estimate);
      ++terms;
    }
  }
  return terms == 0 ? 0.0 : total_loss / static_cast<double>(terms);
}

std::string aggregation_name(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kSum:
      return "SUM";
    case Aggregation::kMean:
      return "MEAN";
    case Aggregation::kCount:
      return "COUNT";
  }
  return "?";
}

}  // namespace streamapprox::core
