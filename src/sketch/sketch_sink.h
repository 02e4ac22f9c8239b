// The QuerySink that answers sketch-backed query classes — heavy hitters,
// distinct counts, quantiles — over the same assembled windows as the
// aggregate/histogram sinks. Registered through QuerySet::sketch() or
// attached/detached live through StreamApprox::attach_query/detach_query
// like any other sink.
//
// Unlike sample-backed sinks the sketch digests EVERY record of the stream
// (the driver feeds worker-local per-slide SlideSketches on the ingest path
// and merges them at slide close), so its window answers are deterministic
// and bit-identical across the sequential, sharded and work-stealing
// runtimes. The sink keeps the merged slide states of the last window's
// worth of slides (the HistogramSink ring idiom) and merges them per window.
#pragma once

#include <vector>

#include "core/query.h"
#include "sketch/sketch_query.h"

namespace streamapprox::sketch {

class SketchSink : public core::QuerySink {
 public:
  /// `quantiles` is the probe grid reported by kQuantile specs (ignored by
  /// the other kinds).
  SketchSink(std::string name, SketchSpec spec,
             std::vector<double> quantiles = {0.5, 0.95, 0.99});

  const SketchSpec& spec() const noexcept { return spec_; }

  void bind(const engine::WindowConfig& window, double default_z) override;
  void on_slide(const std::vector<estimation::StratumSummary>& cells,
                const sampling::StratifiedSample<engine::Record>* sample,
                const SlideSketches* sketches) override;
  core::QueryOutput evaluate(const engine::WindowResult& window) override;

  /// Sketch error is structural (ε/δ sizing), not sample-driven — sketch
  /// sinks never register an adaptive-feedback controller.
  std::optional<double> accuracy_target(
      std::optional<double> fallback) const override {
    (void)fallback;
    return std::nullopt;
  }

  std::unique_ptr<core::QuerySink> clone() const override;

  SketchSpec* mutable_sketch_spec() override { return &spec_; }

 private:
  struct SlideEntry {
    /// True when the slide's sketch state digested every record of the
    /// slide. False for a slide some worker opened before this sink
    /// attached; any incomplete slide in the ring withholds the window's
    /// sketch payload.
    bool complete = false;
    SlideSketchState state;
  };

  SketchSpec spec_;
  std::vector<double> quantiles_;
  std::size_t slides_per_window_ = 1;
  std::vector<SlideEntry> ring_;  // oldest first, at most slides_per_window_
};

}  // namespace streamapprox::sketch
