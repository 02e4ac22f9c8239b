// Sink-level acceptance for sketch-backed queries riding the driver's slide
// lifecycle: heavy hitters / distinct counts / quantiles evaluated per
// assembled window next to aggregate queries, completeness gating for
// dynamically attached sketches, and slides closed without the sink's
// sketch state.
#include "sketch/sketch_sink.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pipeline_driver.h"

namespace streamapprox::core {
namespace {

using engine::Record;
using sketch::SketchSpec;

constexpr std::int64_t kWindowUs = 1'000'000;
constexpr std::int64_t kSlideUs = 500'000;

PipelineDriverConfig sketch_driver_config() {
  PipelineDriverConfig config;
  config.window = {kWindowUs, kSlideUs};  // 2 slides per window
  config.queries.aggregate("mean", QuerySpec{Aggregation::kMean, false});
  SketchSpec hot;
  hot.kind = SketchSpec::Kind::kCountMin;
  hot.key = SketchSpec::KeySource::kStratum;
  hot.epsilon = 0.01;
  hot.delta = 0.01;
  hot.top_k = 5;
  config.queries.sketch("hot strata", hot);
  SketchSpec distinct;
  distinct.kind = SketchSpec::Kind::kHyperLogLog;
  distinct.key = SketchSpec::KeySource::kValueInt;
  distinct.epsilon = 0.02;
  config.queries.sketch("distinct sizes", distinct);
  SketchSpec latency;
  latency.kind = SketchSpec::Kind::kQuantile;
  latency.epsilon = 0.02;  // α: deterministic relative value bound
  config.queries.sketch("size quantiles", latency, {0.5, 0.9, 0.99});
  return config;
}

/// Zipf-hot strata, lognormal values, evenly spaced timestamps (4000/s).
std::vector<Record> skewed_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Record{
        static_cast<sampling::StratumId>(rng.zipf(16, 1.2)),
        rng.lognormal(3.0, 1.0), static_cast<std::int64_t>(i) * 250});
  }
  return records;
}

std::vector<const Record*> window_records(const std::vector<Record>& records,
                                          const WindowEstimate& window) {
  std::vector<const Record*> in_window;
  for (const Record& r : records) {
    if (r.event_time_us >= window.window_start_us &&
        r.event_time_us < window.window_end_us) {
      in_window.push_back(&r);
    }
  }
  return in_window;
}

const QueryOutput* find_query(const WindowOutput& output,
                              const std::string& name) {
  for (const auto& q : output.queries) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

TEST(SketchQuery, AnswersMatchExactWindowTruthWithinBounds) {
  const auto records = skewed_stream(16'000, 42);  // [0, 4 s)
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(sketch_driver_config(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });
  driver.offer_batch(records.data(), records.size());
  driver.finish();
  ASSERT_GE(outputs.size(), 5u);

  for (const auto& output : outputs) {
    ASSERT_EQ(output.queries.size(), 4u);
    const auto exact = window_records(records, output.estimate);

    // Count-Min heavy hitters: never undercount, overcount within ε·N, and
    // the dominant stratum of the Zipf stream leads the ranking.
    const QueryOutput* hot = find_query(output, "hot strata");
    ASSERT_NE(hot, nullptr);
    ASSERT_TRUE(hot->sketch.has_value());
    EXPECT_EQ(hot->sketch->stream_count, exact.size());
    std::map<std::uint64_t, std::uint64_t> counts;
    for (const Record* r : exact) ++counts[r->stratum];
    ASSERT_FALSE(hot->sketch->heavy_hitters.empty());
    EXPECT_EQ(hot->sketch->heavy_hitters.front().first, 0u);  // Zipf head
    for (const auto& [key, estimate] : hot->sketch->heavy_hitters) {
      const std::uint64_t truth = counts[key];
      EXPECT_GE(estimate, truth);
      EXPECT_LE(static_cast<double>(estimate - truth),
                0.01 * static_cast<double>(exact.size()) + 1.0);
    }

    // HyperLogLog distinct sizes: 4σ of the ε = 2% target.
    const QueryOutput* distinct = find_query(output, "distinct sizes");
    ASSERT_NE(distinct, nullptr);
    ASSERT_TRUE(distinct->sketch.has_value());
    std::set<long long> sizes;
    for (const Record* r : exact) sizes.insert(std::llround(r->value));
    const double truth = static_cast<double>(sizes.size());
    EXPECT_NEAR(distinct->sketch->distinct, truth, 4.0 * 0.02 * truth + 2.0);

    // Quantiles: the log-bucket bound is deterministic — within α of the
    // exact window quantile, every window, every probe.
    const QueryOutput* quantiles = find_query(output, "size quantiles");
    ASSERT_NE(quantiles, nullptr);
    ASSERT_TRUE(quantiles->sketch.has_value());
    std::vector<double> values;
    for (const Record* r : exact) values.push_back(r->value);
    std::sort(values.begin(), values.end());
    ASSERT_EQ(quantiles->sketch->quantiles.size(), 3u);
    for (const auto& [q, answer] : quantiles->sketch->quantiles) {
      const double exact_q = values[static_cast<std::size_t>(
          q * static_cast<double>(values.size() - 1))];
      EXPECT_NEAR(answer, exact_q, 0.02 * exact_q + 1e-9) << "q=" << q;
    }

    // The aggregate rides the same stream untouched.
    const QueryOutput* mean = find_query(output, "mean");
    ASSERT_NE(mean, nullptr);
    EXPECT_FALSE(mean->sketch.has_value());
  }
}

TEST(SketchQuery, SketchSinksDoNotPerturbSampleBackedQueries) {
  // Sketches digest the stream beside the sampler without consuming RNG or
  // budget: the aggregate's outputs must be BIT-identical with and without
  // sketch sinks registered.
  const auto records = skewed_stream(12'000, 43);
  const auto run = [&](bool with_sketches) {
    PipelineDriverConfig config;
    config.window = {kWindowUs, kSlideUs};
    config.queries.aggregate("mean", QuerySpec{Aggregation::kMean, false});
    if (with_sketches) {
      SketchSpec spec;
      spec.kind = SketchSpec::Kind::kCountMin;
      config.queries.sketch("extra", spec);
    }
    std::vector<WindowOutput> outputs;
    PipelineDriver driver(config, [&](const WindowOutput& o) {
      outputs.push_back(o);
    });
    driver.offer_batch(records.data(), records.size());
    driver.finish();
    return outputs;
  };
  const auto bare = run(false);
  const auto sketched = run(true);
  ASSERT_EQ(bare.size(), sketched.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].records_seen, sketched[i].records_seen);
    EXPECT_EQ(bare[i].records_sampled, sketched[i].records_sampled);
    EXPECT_DOUBLE_EQ(bare[i].queries[0].estimate.overall.estimate,
                     sketched[i].queries[0].estimate.overall.estimate);
    EXPECT_DOUBLE_EQ(bare[i].queries[0].estimate.overall.variance,
                     sketched[i].queries[0].estimate.overall.variance);
  }
}

TEST(SketchQuery, DynamicAttachWithholdsPayloadUntilFullyObservedWindow) {
  const auto records = skewed_stream(16'000, 44);  // [0, 4 s)
  PipelineDriverConfig config;
  config.window = {kWindowUs, kSlideUs};
  config.queries.aggregate("mean", QuerySpec{Aggregation::kMean, false});
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(config,
                        [&](const WindowOutput& o) { outputs.push_back(o); });

  // [0, 2 s): slides 0..3 close, windows end at slides 1..3.
  driver.offer_batch(records.data(), 8'000);
  driver.advance(2'000'000);
  ASSERT_EQ(outputs.size(), 3u);

  SketchSpec spec;
  spec.kind = SketchSpec::Kind::kCountMin;
  spec.top_k = 4;
  auto subscription = driver.attach_query(
      std::make_unique<sketch::SketchSink>("late hitters", spec),
      /*subscription_capacity=*/8);
  ASSERT_NE(subscription, nullptr);

  // [2, 3 s) opens slides 4 and 5 BEFORE the attach boundary publishes the
  // new sketch plan, so their states miss the spec; the attach itself
  // applies at slide 4's close. Slides 6 and 7 ([3, 4 s)) are opened after
  // the boundary and digest the spec fully — the sink's first
  // payload-bearing window is the first one made solely of such slides.
  driver.offer_batch(records.data() + 8'000, 4'000);
  driver.advance(3'000'000);  // closes slides 4, 5; attach applies at 4
  driver.offer_batch(records.data() + 12'000, 4'000);
  driver.finish();

  ASSERT_GE(outputs.size(), 7u);
  // Window ending at slide 4 predates the sink's first whole window.
  EXPECT_EQ(find_query(outputs[3], "late hitters"), nullptr);
  // Windows ending at slides 5 and 6 contain under-observed slides: the
  // query appears but withholds its sketch payload.
  for (std::size_t i : {std::size_t{4}, std::size_t{5}}) {
    const QueryOutput* late = find_query(outputs[i], "late hitters");
    ASSERT_NE(late, nullptr) << "window " << i;
    EXPECT_FALSE(late->sketch.has_value()) << "window " << i;
  }
  // Window ending at slide 7 is made of fully-digested slides 6 and 7.
  const QueryOutput* ready = find_query(outputs[6], "late hitters");
  ASSERT_NE(ready, nullptr);
  ASSERT_TRUE(ready->sketch.has_value());
  const auto exact = window_records(records, outputs[6].estimate);
  EXPECT_EQ(ready->sketch->stream_count, exact.size());
  EXPECT_FALSE(ready->sketch->heavy_hitters.empty());

  // The subscription channel carries the same gated payloads.
  std::size_t with_payload = 0;
  std::size_t without_payload = 0;
  while (auto output = subscription->poll()) {
    ASSERT_EQ(output->queries.size(), 1u);
    if (output->queries[0].sketch.has_value()) {
      ++with_payload;
    } else {
      ++without_payload;
    }
  }
  EXPECT_EQ(without_payload, 2u);
  EXPECT_GT(with_payload, 0u);

  // Detach retires it like any other sink.
  EXPECT_TRUE(driver.detach_query("late hitters"));
}

TEST(SketchQuery, StatelessSlidesWithholdPayloadAndPaddedGapsComplete) {
  // A slide whose SlideSketches digested records but hold no state for the
  // sink's spec (provisioned before the spec existed) must suppress the
  // sketch payload: never a partial answer. Padded gap slides close with
  // empty sketches and count as fully observed.
  PipelineDriverConfig config;
  config.window = {kWindowUs, kSlideUs};
  SketchSpec spec;
  spec.kind = SketchSpec::Kind::kHyperLogLog;
  config.queries.sketch("distinct", spec);
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(config,
                        [&](const WindowOutput& o) { outputs.push_back(o); });

  const auto records = skewed_stream(100, 7);
  const auto stateless = [&] {
    sketch::SlideSketches sketches(sketch::SketchPlan{});
    sketches.absorb(records.data(), records.size());
    return sketches;
  };
  driver.close_slide_sample(0, {}, stateless());
  driver.close_slide_sample(1, {}, stateless());
  driver.close_slide_sample(4, {}, stateless());  // pads slides 2 and 3
  // Windows end at slides 1, 2, 3 and 4; only slides 2+3 are both padded.
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& output : outputs) ASSERT_EQ(output.queries.size(), 1u);
  EXPECT_FALSE(outputs[0].queries[0].sketch.has_value());
  EXPECT_FALSE(outputs[1].queries[0].sketch.has_value());
  EXPECT_FALSE(outputs[3].queries[0].sketch.has_value());
  // Window of the two padded slides: complete, payload present, zero counts.
  ASSERT_TRUE(outputs[2].queries[0].sketch.has_value());
  EXPECT_EQ(outputs[2].queries[0].sketch->stream_count, 0u);
  EXPECT_EQ(outputs[2].queries[0].sketch->distinct, 0.0);
}

TEST(SketchQuery, ExternalSampleWithSketchesMatchesSequential) {
  // close_slide_sample's sketch-carrying overload (the merger's path) must
  // produce the same sink behaviour as the driver-internal sequential path.
  const auto records = skewed_stream(8'000, 45);  // [0, 2 s)
  auto config = sketch_driver_config();

  std::vector<WindowOutput> sequential;
  {
    PipelineDriver driver(config, [&](const WindowOutput& o) {
      sequential.push_back(o);
    });
    driver.offer_batch(records.data(), records.size());
    driver.finish();
  }

  std::vector<WindowOutput> external;
  {
    PipelineDriver driver(config, [&](const WindowOutput& o) {
      external.push_back(o);
    });
    // Reproduce the sequential per-slide state by hand: shard 0 of 1
    // samplers plus a SlideSketches fed the slide's records, closed through
    // the external overload.
    std::map<std::int64_t, std::vector<Record>> slides;
    for (const Record& r : records) {
      slides[r.event_time_us / kSlideUs].push_back(r);
    }
    for (const auto& [slide, slide_records] : slides) {
      PipelineDriver::Sampler sampler(driver.slide_sampler_config(slide),
                                      engine::RecordStratum{});
      sketch::SlideSketches sketches(*driver.sketch_plan());
      sampler.offer_batch(slide_records.data(), slide_records.size());
      sketches.absorb(slide_records.data(), slide_records.size());
      driver.close_slide_sample(slide, sampler.take(), std::move(sketches));
    }
  }

  ASSERT_EQ(sequential.size(), external.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].queries.size(), external[i].queries.size());
    for (std::size_t q = 0; q < sequential[i].queries.size(); ++q) {
      const auto& a = sequential[i].queries[q];
      const auto& b = external[i].queries[q];
      ASSERT_EQ(a.sketch.has_value(), b.sketch.has_value());
      if (a.sketch) {
        EXPECT_TRUE(*a.sketch == *b.sketch)
            << "window " << i << " query " << a.name;
      }
    }
  }
}

}  // namespace
}  // namespace streamapprox::core
