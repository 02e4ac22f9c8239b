// The traced pass: the calls the facade makes, composed in stages on one
// thread, with a span around every call into a layer. Spans are timed from
// outside the library, so this pass measures the layers without changing
// them; the end-to-end numbers come from separate untraced runs.
//
//   1. Producer::send_batch + finish (preload)
//   2. W = 1: Consumer::poll, as the sequential path reads;
//      W > 1: Exchange::run with rings that hold the whole stream, then
//      Exchange::pop_n per channel, interleaved as the workers would drain
//   3. per (slide, shard): OasrsSampler::offer_batch on a sampler built from
//      PipelineDriver::slide_sampler_config, SlideSketches::absorb
//   4. at slide close: OasrsSampler::merge and take, SlideSketches::merge
//   5. PipelineDriver::close_slide_sample; a QuerySink decorator times each
//      query's on_slide and evaluate
//
// Layers a workload's live path bypasses are still timed on its input, by
// probes that run after the staged pass and outside its wall time: a
// Consumer read of the topic when the exchange does the reading, a
// one-channel exchange on the sequential workload, and one
// SlideSketchState per sketch kind (which also gives the per-kind split).
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>

#include "common/clock.h"
#include "core/pipeline_driver.h"
#include "core/watermark.h"
#include "engine/record_batch.h"
#include "ingest/exchange.h"
#include "ledger.h"

namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;
using Sampler = core::PipelineDriver::Sampler;

enum class Layer : std::uint16_t {
  kPreload,
  kPoll,
  kExchangeRun,
  kExchangePop,
  kOffer,
  kAbsorb,
  kClose,
  kSamplerMerge,
  kSamplerTake,
  kSketchMerge,
  kDriverClose,
  kOnSlide,
  kEvaluate,
  kCount,
};

constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"ingest.preload",  "ingest.poll",    "exchange.run",
                   "exchange.pop",    "sampling.offer", "sketch.absorb",
                   "slide.close",     "sampling.merge", "sampling.take",
                   "sketch.merge",    "driver.close",   "query.on_slide",
                   "query.evaluate"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kCount;
  /// Query index for query spans.
  std::uint16_t detail = 0;
};

/// Preallocated span buffer; the open-span stack gives each span its parent.
class Spans {
 public:
  explicit Spans(std::size_t capacity) { spans_.reserve(capacity); }

  std::int32_t open(Layer layer, std::uint16_t detail) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        {now_ns(), 0, stack_.empty() ? -1 : stack_.back(), layer, detail});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scoped {
 public:
  Scoped(Spans& spans, Layer layer, std::uint16_t detail = 0)
      : spans_(spans), id_(spans.open(layer, detail)) {}
  ~Scoped() { spans_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans& spans_;
  std::int32_t id_;
};

/// Times one registered query's slide hook and window evaluation.
class TimedSink final : public core::QuerySink {
 public:
  TimedSink(std::unique_ptr<core::QuerySink> inner, Spans& spans,
            std::uint16_t index)
      : core::QuerySink(inner->name()),
        inner_(std::move(inner)),
        spans_(spans),
        index_(index) {}

  void bind(const WindowConfig& window, double default_z) override {
    core::QuerySink::bind(window, default_z);
    inner_->bind(window, default_z);
  }

  void on_slide(const std::vector<estimation::StratumSummary>& cells,
                const sampling::StratifiedSample<Record>* sample,
                const sketch::SlideSketches* sketches) override {
    const Scoped span(spans_, Layer::kOnSlide, index_);
    inner_->on_slide(cells, sample, sketches);
  }

  core::QueryOutput evaluate(const WindowResult& window) override {
    const Scoped span(spans_, Layer::kEvaluate, index_);
    return inner_->evaluate(window);
  }

  std::optional<double> accuracy_target(
      std::optional<double> fallback) const override {
    return inner_->accuracy_target(fallback);
  }

  std::unique_ptr<core::QuerySink> clone() const override {
    return std::make_unique<TimedSink>(inner_->clone(), spans_, index_);
  }

  sketch::SketchSpec* mutable_sketch_spec() override {
    return inner_->mutable_sketch_spec();
  }

 private:
  std::unique_ptr<core::QuerySink> inner_;
  Spans& spans_;
  std::uint16_t index_;
};

/// Steps 3-5: per-(slide, shard) samplers and sketches, merged and handed
/// to the driver when the watermark passes the slide — the merger's rules.
class Stages {
 public:
  Stages(core::PipelineDriver& driver, Spans& spans, std::size_t shards)
      : driver_(driver),
        spans_(spans),
        shards_(shards),
        slide_us_(driver.window_config().slide_us),
        plan_(driver.sketch_plan()),
        occupancy_(shards, {0, 0}) {
    for (const auto& spec : plan_->specs) {
      if (spec.kind == sketch::SketchSpec::Kind::kCountMin) {
        count_min_id_ = spec.id;
      }
    }
  }

  /// Feeds records read for `shard`; `my_strata` / `total_strata` is the
  /// exchange's occupancy stamp (0/0 on the sequential path).
  void absorb(std::size_t shard, const Record* records, std::size_t count,
              std::size_t my_strata, std::size_t total_strata) {
    auto& occupancy = occupancy_[shard];
    if (occupancy != std::pair{my_strata, total_strata}) {
      occupancy = {my_strata, total_strata};
      for (auto& [slide, open] : open_) {
        if (open[shard]) {
          open[shard]->sampler.set_total_budget(
              config_for(slide, shard).total_budget);
        }
      }
    }
    engine::for_each_slide_run(
        records, count, slide_us_,
        [&](std::int64_t slide, const Record* run, std::size_t n) {
          if (closed_any_ && slide < next_) return;  // late
          auto& open = open_[slide];
          if (open.empty()) open.resize(shards_);
          if (!open[shard]) {
            open[shard].emplace(config_for(slide, shard), *plan_);
          }
          {
            const Scoped span(spans_, Layer::kOffer);
            open[shard]->sampler.offer_batch(run, n);
          }
          {
            const Scoped span(spans_, Layer::kAbsorb);
            open[shard]->sketches.absorb(run, n);
          }
          offered_ += n;
        });
  }

  /// Closes every slide whose end the watermark has passed.
  void advance(std::int64_t watermark) {
    if (open_.empty() && !closed_any_) return;
    if (!closed_any_) next_ = open_.begin()->first;
    while ((next_ + 1) * slide_us_ <= watermark) close_next();
  }

  /// End of input (or nothing gates): closes through the last open slide.
  void finish() {
    if (open_.empty()) return;
    if (!closed_any_) next_ = open_.begin()->first;
    const std::int64_t last = open_.rbegin()->first;
    while (next_ <= last) close_next();
  }

  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t slides() const noexcept { return slides_; }
  std::uint64_t strata() const noexcept { return strata_; }
  std::uint64_t candidates() const noexcept { return candidates_; }
  const sampling::OasrsKernelStats& kernel() const noexcept { return kernel_; }

 private:
  struct ShardSlide {
    Sampler sampler;
    sketch::SlideSketches sketches;
    ShardSlide(sampling::OasrsConfig config, const sketch::SketchPlan& plan)
        : sampler(config, engine::RecordStratum{}), sketches(plan) {}
  };

  sampling::OasrsConfig config_for(std::int64_t slide,
                                   std::size_t shard) const {
    const auto [mine, total] = occupancy_[shard];
    return driver_.slide_sampler_config(slide, shard, shards_, mine, total);
  }

  void close_next() {
    const std::int64_t slide = next_++;
    closed_any_ = true;
    const Scoped close(spans_, Layer::kClose);
    Sampler merged(driver_.slide_sampler_config(slide),
                   engine::RecordStratum{});
    sketch::SlideSketches sketches;
    if (auto node = open_.extract(slide)) {
      for (auto& shard : node.mapped()) {
        if (!shard) continue;
        {
          const Scoped span(spans_, Layer::kSamplerMerge);
          merged.merge(shard->sampler);
        }
        const Scoped span(spans_, Layer::kSketchMerge);
        sketches.merge(shard->sketches);
      }
    }
    const auto& stats = merged.kernel_stats();
    kernel_.bulk_runs += stats.bulk_runs;
    kernel_.accepted += stats.accepted;
    kernel_.skipped += stats.skipped;
    sampling::StratifiedSample<Record> sample;
    {
      const Scoped span(spans_, Layer::kSamplerTake);
      sample = merged.take();
    }
    strata_ += sample.strata.size();
    if (const auto* state = sketches.find(count_min_id_)) {
      candidates_ += state->candidates.size();
    }
    ++slides_;
    const Scoped span(spans_, Layer::kDriverClose);
    driver_.close_slide_sample(slide, std::move(sample), std::move(sketches));
  }

  core::PipelineDriver& driver_;
  Spans& spans_;
  const std::size_t shards_;
  const std::int64_t slide_us_;
  const std::shared_ptr<const sketch::SketchPlan> plan_;
  std::uint64_t count_min_id_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> occupancy_;
  std::map<std::int64_t, std::vector<std::optional<ShardSlide>>> open_;
  std::int64_t next_ = 0;
  bool closed_any_ = false;
  std::uint64_t offered_ = 0;
  std::uint64_t slides_ = 0;
  std::uint64_t strata_ = 0;
  std::uint64_t candidates_ = 0;
  sampling::OasrsKernelStats kernel_;
};

/// Ring capacity that holds a whole routed stream: at most one data batch
/// and one heartbeat per channel per round, and at most one round per
/// batch_size records of the busiest partition.
std::size_t whole_stream_capacity(std::size_t records, std::size_t batch) {
  return 2 * (records / batch + 2) + 8;
}

struct ReadCounts {
  std::uint64_t polls = 0;
  std::uint64_t batches = 0;
  std::uint64_t heartbeats = 0;
  ingest::ExchangeStats exchange;
};

/// Step 2, sequential: Consumer::poll feeding the stages, with the
/// per-partition watermark of the sequential path.
ReadCounts read_sequential(ingest::Broker& broker, Stages& stages,
                           Spans& spans, std::size_t poll_batch) {
  ReadCounts counts;
  auto& topic = broker.topic(kTopic);
  ingest::Consumer consumer(broker, kTopic);
  std::vector<std::int64_t> clocks(topic.partition_count(), core::kNoClock);
  std::vector<Record> records;
  records.reserve(poll_batch);
  for (;;) {
    {
      const Scoped span(spans, Layer::kPoll);
      consumer.poll(records, poll_batch, /*timeout_ms=*/0);
    }
    ++counts.polls;
    for (const auto& record : records) {
      auto& clock = clocks[topic.partition_for_key(record.stratum)];
      clock = std::max(clock, record.event_time_us);
    }
    stages.absorb(0, records.data(), records.size(), 0, 0);
    for (std::size_t slot = 0; slot < consumer.assignment().size(); ++slot) {
      if (consumer.partition_exhausted(slot)) {
        clocks[consumer.assignment()[slot]] = core::kPartitionDrained;
      }
    }
    const auto view = core::evaluate_watermark(clocks, false);
    if (view.can_close()) {
      stages.advance(view.watermark);
    } else if (view.flush_all()) {
      stages.finish();
    }
    if (records.empty() && consumer.exhausted()) break;
  }
  stages.finish();
  return counts;
}

/// Step 2, sharded: the whole stream through Exchange::run, then each
/// channel drained in turn, up to one deque's worth of batches per pop_n,
/// with the merger's min-over-channels watermark.
ReadCounts read_exchange(ingest::Broker& broker, Stages& stages, Spans& spans,
                         std::size_t records, std::size_t workers,
                         const core::StreamApproxConfig& facade) {
  ingest::ExchangeConfig config;
  config.workers = workers;
  config.batch_size = facade.exchange_batch_size;
  config.ring_capacity = whole_stream_capacity(records, config.batch_size);
  ingest::Exchange exchange(broker, kTopic, config);
  {
    const Scoped span(spans, Layer::kExchangeRun);
    exchange.run();
  }
  ReadCounts counts;
  counts.exchange = exchange.stats();
  std::vector<std::int64_t> clocks(workers, core::kNoClock);
  std::vector<ingest::Exchange::BatchPtr> batches;
  for (;;) {
    bool all_drained = true;
    for (std::size_t w = 0; w < workers; ++w) {
      if (exchange.drained(w)) continue;
      all_drained = false;
      batches.clear();
      {
        const Scoped span(spans, Layer::kExchangePop);
        exchange.pop_n(w, batches, facade.steal_deque_capacity);
      }
      for (auto& batch : batches) {
        if (batch->heartbeat) {
          ++counts.heartbeats;
        } else {
          ++counts.batches;
          stages.absorb(w, batch->records.data(), batch->size(),
                        batch->route_strata, batch->total_strata);
        }
        clocks[w] = batch->watermark_us;
        exchange.recycle(std::move(batch));
      }
    }
    const auto view = core::evaluate_watermark(clocks, false);
    if (view.can_close()) {
      stages.advance(view.watermark);
    } else if (view.flush_all()) {
      stages.finish();
    }
    if (all_drained) break;
  }
  stages.finish();
  return counts;
}

/// Self and total time per layer (and per query for query spans).
struct Breakdown {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns{};
  std::array<double, static_cast<std::size_t>(Layer::kCount)> total_ns{};
  std::map<std::uint16_t, double> on_slide_ns;
  std::map<std::uint16_t, double> evaluate_ns;
  double top_level_ns = 0.0;
};

Breakdown breakdown(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  Breakdown out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    const auto layer = static_cast<std::size_t>(span.layer);
    out.total_ns[layer] += duration;
    out.self_ns[layer] += duration - child_ns[i];
    if (span.parent < 0) out.top_level_ns += duration;
    if (span.layer == Layer::kOnSlide) out.on_slide_ns[span.detail] += duration;
    if (span.layer == Layer::kEvaluate) {
      out.evaluate_ns[span.detail] += duration;
    }
  }
  return out;
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
/// per span, its id and parent id in args.
void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& query_names,
                 std::int64_t origin_ns) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", file);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    std::string name = kLayerNames[static_cast<std::size_t>(span.layer)];
    if (span.layer == Layer::kOnSlide || span.layer == Layer::kEvaluate) {
      name += ":" + query_names.at(span.detail);
    }
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", name.c_str(),
                 static_cast<double>(span.start_ns - origin_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent);
  }
  std::fputs("]}\n", file);
  std::fclose(file);
}

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

/// One SlideSketchState per full-mix spec over the records in read order,
/// slide by slide: absorb time per record of each sketch kind.
std::array<double, 3> sketch_kind_ns(const std::vector<Record>& records,
                                     std::int64_t slide_us,
                                     std::size_t chunk) {
  const auto specs = full_mix_sketch_specs();
  std::vector<sketch::SlideSketchState> states;
  std::array<double, 3> ns{};
  std::int64_t current = -1;
  for (std::size_t offset = 0; offset < records.size(); offset += chunk) {
    const std::size_t n = std::min(chunk, records.size() - offset);
    engine::for_each_slide_run(
        records.data() + offset, n, slide_us,
        [&](std::int64_t slide, const Record* run, std::size_t m) {
          if (states.empty() || slide != current) {
            states.clear();
            for (const auto& spec : specs) {
              states.push_back(sketch::SlideSketchState::make(spec));
            }
            current = slide;
          }
          for (std::size_t k = 0; k < states.size(); ++k) {
            const std::int64_t start = now_ns();
            states[k].absorb(run, m);
            ns[k] += static_cast<double>(now_ns() - start);
          }
        });
  }
  const auto total = static_cast<double>(records.size());
  return {ns[0] / total, ns[1] / total, ns[2] / total};
}

}  // namespace

Metrics run_traced(const TraceInput& input) {
  const Workload& workload = *input.workload;
  const std::vector<Record>& records = *input.records;
  const auto facade = facade_config(workload, workload.workers, input.seed);
  const auto n = static_cast<double>(records.size());

  Spans spans(records.size() / 128 + 100'000);
  // The registry of the facade, each sink wrapped in a timing decorator.
  QuerySet timed;
  std::vector<std::string> query_names;
  for (const auto& sink : facade.queries.sinks()) {
    timed.add(std::make_unique<TimedSink>(
        sink->clone(), spans, static_cast<std::uint16_t>(query_names.size())));
    query_names.push_back(sink->name());
  }
  core::PipelineDriverConfig driver_config;
  driver_config.queries = timed;
  driver_config.budget = facade.budget;
  driver_config.window = facade.window;
  driver_config.z = facade.z;
  driver_config.seed = facade.seed;
  std::vector<WindowOutput> outputs;
  core::PipelineDriver driver(
      driver_config,
      [&](const WindowOutput& output) { outputs.push_back(output); });
  Stages stages(driver, spans, workload.workers);

  const std::int64_t origin = now_ns();
  ingest::Broker broker;
  broker.create_topic(kTopic, workload.partitions);
  {
    const Scoped span(spans, Layer::kPreload);
    ingest::Producer producer(broker, kTopic);
    producer.send_batch(records);
    producer.finish();
  }
  // Steps 2-5 are what run() does; the traced wall time starts here.
  const std::int64_t staged = now_ns();
  const ReadCounts counts =
      workload.workers == 1
          ? read_sequential(broker, stages, spans, facade.poll_batch)
          : read_exchange(broker, stages, spans, records.size(),
                          workload.workers, facade);
  const auto wall_ns = static_cast<double>(now_ns() - staged);
  input.gate->check(outputs, /*score=*/false);
  if (!input.trace_path.empty()) {
    write_trace(input.trace_path, spans.spans(), query_names, origin);
  }
  const Breakdown b = breakdown(spans.spans());
  const auto at = [](const auto& array, Layer layer) {
    return array[static_cast<std::size_t>(layer)];
  };

  Metrics m;
  const auto slides = static_cast<double>(stages.slides());
  const auto windows = static_cast<double>(outputs.size());
  const auto offered = static_cast<double>(stages.offered());
  m["ingest.preload_ns_per_record"] = {at(b.total_ns, Layer::kPreload) / n,
                                       "ns"};

  // Probes for the layers this workload's live path bypasses.
  ReadCounts probe = counts;
  double poll_ns = at(b.total_ns, Layer::kPoll);
  double route_ns = at(b.total_ns, Layer::kExchangeRun);
  double pop_ns = at(b.total_ns, Layer::kExchangePop);
  if (workload.workers == 1) {
    ingest::ExchangeConfig config;
    config.workers = 1;
    config.batch_size = facade.exchange_batch_size;
    config.ring_capacity = whole_stream_capacity(records.size(),
                                                 config.batch_size);
    ingest::Exchange exchange(broker, kTopic, config);
    streamapprox::Stopwatch route;
    exchange.run();
    route_ns = route.seconds() * 1e9;
    std::vector<ingest::Exchange::BatchPtr> batches;
    streamapprox::Stopwatch pop;
    while (exchange.pop_n(0, batches, facade.steal_deque_capacity) > 0) {
    }
    pop_ns = pop.seconds() * 1e9;
    probe.batches = batches.size();
    probe.exchange = exchange.stats();
  } else {
    ingest::Consumer consumer(broker, kTopic);
    std::vector<Record> buffer;
    streamapprox::Stopwatch poll;
    probe.polls = 0;
    while (consumer.poll(buffer, facade.exchange_batch_size, 0) > 0) {
      ++probe.polls;
    }
    poll_ns = poll.seconds() * 1e9;
  }
  m["ingest.poll_ns_per_record"] = {poll_ns / n, "ns"};
  m["ingest.records_per_poll"] = {per(n, static_cast<double>(probe.polls)),
                                  "count"};
  const auto runs = static_cast<double>(probe.exchange.runs);
  m["exchange.route_ns_per_record"] = {route_ns / n, "ns"};
  m["exchange.pop_ns_per_batch"] = {
      per(pop_ns, static_cast<double>(probe.batches + probe.heartbeats)),
      "ns"};
  m["exchange.records_per_run"] = {
      per(static_cast<double>(probe.exchange.records), runs), "count"};
  m["exchange.probes_per_run"] = {
      per(static_cast<double>(probe.exchange.table_probes), runs), "count"};

  m["sampling.offer_ns_per_record"] = {
      per(at(b.self_ns, Layer::kOffer), offered), "ns"};
  m["sampling.merge_us_per_slide"] = {
      per(at(b.self_ns, Layer::kSamplerMerge), slides) / 1e3, "us"};
  m["sampling.take_us_per_slide"] = {
      per(at(b.self_ns, Layer::kSamplerTake), slides) / 1e3, "us"};
  m["sampling.strata_per_slide"] = {
      per(static_cast<double>(stages.strata()), slides), "count"};
  const auto& kernel = stages.kernel();
  m["sampling.accept_share"] = {
      per(static_cast<double>(kernel.accepted),
          static_cast<double>(kernel.accepted + kernel.skipped)),
      "fraction"};

  m["sketch.absorb_ns_per_record"] = {
      per(at(b.self_ns, Layer::kAbsorb), offered), "ns"};
  const auto kinds =
      sketch_kind_ns(records, workload.window.slide_us, facade.poll_batch);
  m["sketch.absorb_ns_per_record.count_min"] = {kinds[0], "ns"};
  m["sketch.absorb_ns_per_record.hll"] = {kinds[1], "ns"};
  m["sketch.absorb_ns_per_record.quantile"] = {kinds[2], "ns"};
  m["sketch.merge_us_per_slide"] = {
      per(at(b.self_ns, Layer::kSketchMerge), slides) / 1e3, "us"};
  m["sketch.candidates_per_slide"] = {
      per(static_cast<double>(stages.candidates()), slides), "count"};

  m["driver.close_us_per_slide"] = {
      per(at(b.self_ns, Layer::kDriverClose) + at(b.self_ns, Layer::kClose),
          slides) /
          1e3,
      "us"};
  m["driver.windows"] = {windows, "count"};
  m["query.on_slide_us_per_slide"] = {
      per(at(b.total_ns, Layer::kOnSlide), slides) / 1e3, "us"};
  m["query.evaluate_us_per_window"] = {
      per(at(b.total_ns, Layer::kEvaluate), windows) / 1e3, "us"};
  for (const auto& [index, ns] : b.on_slide_ns) {
    m["query.on_slide_us." + query_names[index]] = {per(ns, slides) / 1e3,
                                                    "us"};
  }
  for (const auto& [index, ns] : b.evaluate_ns) {
    m["query.evaluate_us." + query_names[index]] = {per(ns, windows) / 1e3,
                                                    "us"};
  }
  // The primary query under a name every workload shares.
  m["query.evaluate_us.primary"] = m["query.evaluate_us." + query_names[0]];

  m["trace.wall_s"] = {wall_ns / 1e9, "s"};
  m["trace.span_coverage"] = {
      (b.top_level_ns - at(b.total_ns, Layer::kPreload)) / wall_ns,
      "fraction"};
  m["trace.spans"] = {static_cast<double>(spans.spans().size()), "count"};
  return m;
}

}  // namespace ledger
