// The approximate linear-query model (paper §3.2: "our OASRS sampling
// algorithm supports any types of approximate linear queries ... sum,
// average, count, histogram") and the query registry that executes MANY such
// queries over one sampled stream.
//
// A query turns a window's sample cells into an overall estimate and,
// optionally, per-stratum group estimates (the case studies group by
// protocol / borough). The registry side generalises this from "one query
// per run" to N concurrent queries: the stream is ingested, exchanged,
// sampled and windowed ONCE, and every registered QuerySink evaluates the
// same assembled windows — the sample-once / answer-many economics that is
// the approximate-analytics value proposition.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "engine/record.h"
#include "engine/window.h"
#include "estimation/approx_result.h"
#include "estimation/histogram_query.h"
#include "sketch/sketch_query.h"

namespace streamapprox::core {

/// Supported aggregations.
enum class Aggregation { kSum, kMean, kCount };

/// A streaming query: an aggregation, optionally grouped by stratum.
struct QuerySpec {
  Aggregation aggregation = Aggregation::kMean;
  /// When true, per-stratum results are produced as well (e.g. "total bytes
  /// per protocol", "average distance per borough").
  bool per_stratum = false;
};

/// The evaluated result of one window.
struct WindowEstimate {
  std::int64_t window_start_us = 0;
  std::int64_t window_end_us = 0;
  estimation::ApproxResult overall;
  /// Per-stratum estimates (present when QuerySpec::per_stratum).
  std::vector<std::pair<sampling::StratumId, estimation::ApproxResult>>
      groups;
};

/// One registered query's evaluated output for one window.
struct QueryOutput {
  /// The name the query was registered under.
  std::string name;
  WindowEstimate estimate;
  /// Population-scale value histogram (HISTOGRAM queries only).
  std::optional<Histogram> histogram;
  /// Confidence (standard deviations) this query's bounds were computed at.
  double z = 2.0;
  /// The observed relative error bound at `z` — this query's term in the
  /// adaptive feedback loop.
  double observed_relative_bound = 0.0;
  /// Sketch answer (sketch-backed sinks only). Present only when every slide
  /// of the window was fully digested by the sink's sketch — a dynamically
  /// attached sketch withholds its payload until a complete window's worth
  /// of fully-observed slides has accumulated.
  std::optional<sketch::SketchAnswer> sketch;
};

/// A registered query: evaluates each assembled window's cells into a
/// QueryOutput, owning its own confidence and (optionally) its own accuracy
/// target. Sinks may be stateful across slides (the HISTOGRAM slide ring),
/// so they are cloneable: a QuerySet stored in a config seeds any number of
/// independent runs, each starting from fresh sink state.
///
/// Thread safety: configuration (set_z / set_accuracy_target) happens
/// before the sink is handed to a registry or to attach_query; afterwards
/// the sink is owned by ONE lifecycle thread, which calls bind() once and
/// then on_slide()/evaluate() strictly in slide order. A dynamically
/// attached sink (StreamApprox::attach_query) is bound at its slide-close
/// boundary and observes only slides from that boundary on — evaluate() is
/// never called for a window containing slides the sink did not observe.
class QuerySink {
 public:
  explicit QuerySink(std::string name) : name_(std::move(name)) {}
  virtual ~QuerySink() = default;

  /// The registration name — immutable, and the key detach_query addresses
  /// (keep names unique per run; detach retires the first match).
  const std::string& name() const noexcept { return name_; }

  /// Per-query confidence (standard deviations): bounds and the feedback
  /// term of THIS query use it, so a 95 %-confidence SUM can coexist with a
  /// 99 %-confidence MEAN. Unset inherits the config-level default.
  void set_z(double z) { z_ = z; }

  /// Per-query relative-error target: when set, this query drives its own
  /// feedback controller, and the strictest registered target wins (the
  /// budget in force is the max across controllers).
  void set_accuracy_target(double target) { target_ = target; }

  /// Resolved confidence (valid after bind()).
  double z() const noexcept { return resolved_z_; }

  /// Called once by the driver before any slide: window geometry plus the
  /// config-level confidence default.
  virtual void bind(const engine::WindowConfig& window, double default_z) {
    (void)window;
    resolved_z_ = z_.value_or(default_z);
  }

  /// Called for EVERY closed slide in order (empty padded slides included),
  /// before window assembly — the hook for sinks that need slide-granular
  /// state. `sample` is the slide's stratified sample and `sketches` the
  /// merged sketch state collected beside it; neither is ever null (a
  /// padded slide passes an empty sample and empty sketches).
  virtual void on_slide(
      const std::vector<estimation::StratumSummary>& cells,
      const sampling::StratifiedSample<engine::Record>* sample,
      const sketch::SlideSketches* sketches) {
    (void)cells;
    (void)sample;
    (void)sketches;
  }

  /// Evaluates one assembled window.
  virtual QueryOutput evaluate(const engine::WindowResult& window) = 0;

  /// The relative-error target this query contributes to the feedback loop.
  /// `fallback` carries the config-level accuracy budget (nullopt when the
  /// run's budget is not accuracy-kind). Default: explicit target, else the
  /// fallback.
  virtual std::optional<double> accuracy_target(
      std::optional<double> fallback) const {
    return target_ ? target_ : fallback;
  }

  /// Produces an UNBOUND sink with the same configuration (fresh runtime
  /// state); the driver clones the registered set at construction.
  virtual std::unique_ptr<QuerySink> clone() const = 0;

  /// Sketch-backed sinks expose their collection spec here so the driver
  /// can assign it a unique id at registration and provision worker-local
  /// per-slide sketch state for it. Sample-backed sinks return nullptr.
  virtual sketch::SketchSpec* mutable_sketch_spec() { return nullptr; }

 protected:
  std::string name_;
  std::optional<double> z_;
  std::optional<double> target_;
  double resolved_z_ = 2.0;
};

/// SUM / MEAN / COUNT over all strata or per stratum — stateless across
/// slides.
class AggregateSink : public QuerySink {
 public:
  AggregateSink(std::string name, QuerySpec spec)
      : QuerySink(std::move(name)), spec_(spec) {}

  const QuerySpec& spec() const noexcept { return spec_; }

  QueryOutput evaluate(const engine::WindowResult& window) override;
  std::unique_ptr<QuerySink> clone() const override;

 private:
  QuerySpec spec_;
};

/// Approximate HISTOGRAM query (§3.2): keeps the per-slide weighted
/// histograms of the last window's worth of slides and merges them per
/// window. Its point estimate is the weighted COUNT the histogram mass
/// speaks for.
class HistogramSink : public QuerySink {
 public:
  HistogramSink(std::string name, estimation::HistogramSpec spec)
      : QuerySink(std::move(name)), spec_(spec) {}

  const estimation::HistogramSpec& spec() const noexcept { return spec_; }

  void bind(const engine::WindowConfig& window, double default_z) override;
  void on_slide(
      const std::vector<estimation::StratumSummary>& cells,
      const sampling::StratifiedSample<engine::Record>* sample,
      const sketch::SlideSketches* sketches) override;
  QueryOutput evaluate(const engine::WindowResult& window) override;

  /// Histograms never inherit the config-level accuracy budget — only an
  /// explicit per-query target registers a feedback controller, so a
  /// registry of one aggregate and one histogram under an accuracy budget
  /// keeps exactly one controller: the aggregate query's.
  std::optional<double> accuracy_target(
      std::optional<double> fallback) const override {
    (void)fallback;
    return target_;
  }

  std::unique_ptr<QuerySink> clone() const override;

 private:
  estimation::HistogramSpec spec_;
  std::size_t slides_per_window_ = 1;
  std::vector<Histogram> ring_;  // oldest first, at most slides_per_window_
};

/// The set of queries registered for one run — the STATIC seed of the
/// registry. Copyable (copies deep-clone the sinks) so it can live in a
/// by-value config; the driver clones it once more at construction so
/// concurrent runs never share sink state. Not thread-safe: build it before
/// handing the config to a run. Queries join or leave a RUNNING pipeline
/// through StreamApprox::attach_query / detach_query instead, which feed
/// the driver's live registry at slide-close boundaries.
class QuerySet {
 public:
  QuerySet() = default;
  QuerySet(const QuerySet& other) { *this = other; }
  QuerySet& operator=(const QuerySet& other);
  QuerySet(QuerySet&&) noexcept = default;
  QuerySet& operator=(QuerySet&&) noexcept = default;

  /// Registers a sink; returns *this for chaining.
  QuerySet& add(std::unique_ptr<QuerySink> sink);

  /// Convenience: registers an AggregateSink. `z` overrides the config-level
  /// confidence for this query; `accuracy_target` gives it its own feedback
  /// controller.
  QuerySet& aggregate(std::string name, QuerySpec spec,
                      std::optional<double> z = std::nullopt,
                      std::optional<double> accuracy_target = std::nullopt);

  /// Convenience: registers a HistogramSink.
  QuerySet& histogram(std::string name, estimation::HistogramSpec spec,
                      std::optional<double> z = std::nullopt);

  /// Convenience: registers a SketchSink for the given collection spec
  /// (Count-Min heavy hitters, HyperLogLog distinct count, or quantiles —
  /// see sketch::SketchSpec). `quantiles` is the probe grid for quantile
  /// sketches (ignored by the other kinds).
  QuerySet& sketch(std::string name, sketch::SketchSpec spec,
                   std::vector<double> quantiles = {0.5, 0.95, 0.99});

  bool empty() const noexcept { return sinks_.empty(); }
  std::size_t size() const noexcept { return sinks_.size(); }
  const std::vector<std::unique_ptr<QuerySink>>& sinks() const noexcept {
    return sinks_;
  }

  /// Fresh unbound clones of every registered sink, in registration order.
  std::vector<std::unique_ptr<QuerySink>> clone_sinks() const;

 private:
  std::vector<std::unique_ptr<QuerySink>> sinks_;
};

/// Evaluates the query over one completed window.
WindowEstimate evaluate_window(const engine::WindowResult& window,
                               const QuerySpec& query);

/// Evaluates the query over every completed window of a run.
std::vector<WindowEstimate> evaluate_windows(
    const std::vector<engine::WindowResult>& windows, const QuerySpec& query);

/// Computes the EXACT window results for the same stream — the ground truth
/// used for the paper's accuracy-loss metric (§6.1). Direct single pass over
/// the records (no engine, no sampling); the produced cells have
/// seen == sampled and weight 1. Records may come in any order: unsorted
/// input is stably sorted by event time into a copy first, while sorted
/// input is read in place.
std::vector<engine::WindowResult> exact_window_results(
    const std::vector<engine::Record>& records,
    const engine::WindowConfig& window);

/// Accuracy loss |approx - exact| / exact (paper §6.1), averaged over all
/// windows matched by end time and — for per-stratum queries — over all
/// groups. Windows missing from either side are skipped; returns 0 when
/// nothing matches.
double mean_accuracy_loss(const std::vector<WindowEstimate>& approx,
                          const std::vector<WindowEstimate>& exact,
                          const QuerySpec& query);

/// Name of an aggregation ("SUM", "MEAN", "COUNT").
std::string aggregation_name(Aggregation aggregation);

}  // namespace streamapprox::core
