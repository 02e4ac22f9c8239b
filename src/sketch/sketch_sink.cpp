#include "sketch/sketch_sink.h"

#include <algorithm>

namespace streamapprox::sketch {

SketchSink::SketchSink(std::string name, SketchSpec spec,
                       std::vector<double> quantiles)
    : core::QuerySink(std::move(name)),
      spec_(spec),
      quantiles_(std::move(quantiles)) {}

void SketchSink::bind(const engine::WindowConfig& window, double default_z) {
  core::QuerySink::bind(window, default_z);
  slides_per_window_ = window.slides_per_window();
  ring_.clear();
}

void SketchSink::on_slide(
    const std::vector<estimation::StratumSummary>& cells,
    const sampling::StratifiedSample<engine::Record>* sample,
    const SlideSketches* sketches) {
  (void)cells;
  (void)sample;
  SlideEntry entry;
  if (const SlideSketchState* state = sketches->find(spec_.id)) {
    // Complete only when this spec's state digested everything the slide
    // received — a spec attached after some workers already opened the
    // slide has seen < total and must not contribute a partial answer.
    entry.complete = state->seen == sketches->seen();
    entry.state = *state;
  } else {
    // No state for this spec: complete only if the slide digested nothing,
    // e.g. a padded gap.
    entry.complete = sketches->seen() == 0;
    entry.state = SlideSketchState::make(spec_);
  }
  ring_.push_back(std::move(entry));
  if (ring_.size() > slides_per_window_) ring_.erase(ring_.begin());
}

core::QueryOutput SketchSink::evaluate(const engine::WindowResult& window) {
  core::QueryOutput output;
  output.name = name_;
  output.z = resolved_z_;
  output.estimate.window_start_us = window.window_start_us;
  output.estimate.window_end_us = window.window_end_us;

  bool complete = ring_.size() == slides_per_window_;
  for (const SlideEntry& entry : ring_) complete = complete && entry.complete;
  if (!complete) return output;  // no payload until fully observed

  SlideSketchState merged = SlideSketchState::make(spec_);
  for (const SlideEntry& entry : ring_) merged.merge(entry.state);

  SketchAnswer answer;
  answer.kind = spec_.kind;
  answer.epsilon = spec_.epsilon;
  answer.stream_count = merged.seen;
  double point = 0.0;
  switch (spec_.kind) {
    case SketchSpec::Kind::kCountMin: {
      answer.heavy_hitters.reserve(merged.candidates.size());
      for (const std::uint64_t key : merged.candidates) {
        answer.heavy_hitters.emplace_back(key, merged.count_min->estimate(key));
      }
      // Deterministic order: estimate desc, key asc — ties cannot depend on
      // the (unordered) candidate-set iteration order.
      std::sort(answer.heavy_hitters.begin(), answer.heavy_hitters.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      if (answer.heavy_hitters.size() > spec_.top_k) {
        answer.heavy_hitters.resize(spec_.top_k);
      }
      point = static_cast<double>(merged.count_min->total());
      break;
    }
    case SketchSpec::Kind::kHyperLogLog:
      answer.distinct = merged.hll->estimate();
      point = answer.distinct;
      break;
    case SketchSpec::Kind::kQuantile:
      answer.quantiles.reserve(quantiles_.size());
      for (const double q : quantiles_) {
        answer.quantiles.emplace_back(q, merged.quantile->quantile(q));
      }
      point = merged.quantile->quantile(0.5);
      break;
  }
  // The sketch digests the full stream, so population == sample_size and the
  // sampling variance is zero; the sketch's own error is the ε carried in
  // the answer, not a confidence interval.
  output.estimate.overall.estimate = point;
  output.estimate.overall.population = merged.seen;
  output.estimate.overall.sample_size = merged.seen;
  output.sketch = std::move(answer);
  return output;
}

std::unique_ptr<core::QuerySink> SketchSink::clone() const {
  auto copy = std::make_unique<SketchSink>(name_, spec_, quantiles_);
  copy->z_ = z_;
  copy->target_ = target_;
  return copy;
}

}  // namespace streamapprox::sketch
