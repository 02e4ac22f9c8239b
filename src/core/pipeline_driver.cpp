#include "core/pipeline_driver.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/record_batch.h"
#include "estimation/estimators.h"

namespace streamapprox::core {

PipelineDriver::PipelineDriver(PipelineDriverConfig config, OutputFn on_output,
                               std::size_t shards)
    : config_(std::move(config)),
      on_output_(std::move(on_output)),
      assembler_(config_.window),
      slide_budget_(config_.initial_budget),
      shards_(std::max<std::size_t>(1, shards)) {
  for (auto& sink : config_.queries.clone_sinks()) {
    register_sink(std::move(sink), nullptr, /*attach_slide=*/0,
                  config_.initial_budget);
  }
  drive_fallback_controller();
  for (const auto& q : queries_) live_names_.push_back(q.sink->name());
  live_query_count_.store(queries_.size(), std::memory_order_release);
  publish_sketch_plan();
}

PipelineDriver::~PipelineDriver() {
  // Release every subscription consumer: a detached-by-teardown channel
  // drains its buffered outputs, then reports finished().
  for (auto& q : queries_) {
    if (q.subscription) q.subscription->close();
  }
  std::lock_guard lock(control_mutex_);
  for (auto& op : pending_) {
    if (op.subscription) op.subscription->close();
  }
}

std::optional<double> PipelineDriver::fallback_target() const {
  // An accuracy budget is the default target for queries without their own;
  // every targeted query gets a controller and the strictest drives the
  // budget (max across controllers).
  return config_.budget.kind == estimation::BudgetKind::kRelativeError
             ? std::optional<double>(config_.budget.value)
             : std::nullopt;
}

void PipelineDriver::drive_fallback_controller() {
  // A histogram-only registry, or the last targeted query detached: no sink
  // carries the fallback target, but the user still asked for accuracy-
  // driven adaptation, so the first query's observed bound drives one
  // controller rather than the budget staying pinned where it stands.
  if (!controller_budget() && fallback_target() && !queries_.empty()) {
    queries_.front().controller.emplace(
        *fallback_target(), slide_budget_.load(std::memory_order_relaxed));
  }
}

std::optional<std::size_t> PipelineDriver::controller_budget() const {
  std::optional<std::size_t> budget;
  for (const auto& q : queries_) {
    if (q.controller) {
      budget = std::max(budget.value_or(0), q.controller->budget());
    }
  }
  return budget;
}

void PipelineDriver::register_sink(
    std::unique_ptr<QuerySink> sink,
    std::shared_ptr<QuerySubscription> subscription,
    std::uint64_t attach_slide, std::size_t seed_budget) {
  RegisteredQuery q;
  if (sketch::SketchSpec* spec = sink->mutable_sketch_spec()) {
    // Unique per driver: worker-local slide states and the sink find each
    // other by this id after merges.
    spec->id = next_sketch_id_++;
  }
  sink->bind(config_.window, config_.z);
  if (const auto target = sink->accuracy_target(fallback_target())) {
    q.controller.emplace(*target, seed_budget);
  }
  const std::size_t slides_per_window =
      std::max<std::size_t>(1, config_.window.slides_per_window());
  // The earliest window made ENTIRELY of slides the sink observed ends at
  // attach_slide + W - 1; anything earlier would hand the sink a window it
  // saw only part of.
  q.first_window_slide =
      attach_slide + static_cast<std::uint64_t>(slides_per_window) - 1;
  q.sink = std::move(sink);
  q.subscription = std::move(subscription);
  queries_.push_back(std::move(q));
}

std::shared_ptr<QuerySubscription> PipelineDriver::attach_query(
    std::unique_ptr<QuerySink> sink, std::size_t subscription_capacity) {
  if (!sink) return nullptr;
  PendingOp op;
  op.sink = std::move(sink);
  if (subscription_capacity > 0) {
    op.subscription = std::make_shared<QuerySubscription>(subscription_capacity);
  }
  std::shared_ptr<QuerySubscription> subscription = op.subscription;
  std::lock_guard lock(control_mutex_);
  pending_.push_back(std::move(op));
  control_generation_.fetch_add(1, std::memory_order_release);
  return subscription;
}

bool PipelineDriver::detach_query(const std::string& name) {
  std::lock_guard lock(control_mutex_);
  // A still-pending attach is simply cancelled — it never took effect.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->sink && it->sink->name() == name) {
      if (it->subscription) it->subscription->close();
      pending_.erase(it);
      control_generation_.fetch_add(1, std::memory_order_release);
      return true;
    }
  }
  // A queued detach of this name retires one query; a repeat must not
  // retire a second query that shares the name.
  const bool queued = std::any_of(
      pending_.begin(), pending_.end(),
      [&](const PendingOp& op) { return !op.sink && op.detach_name == name; });
  if (queued || std::find(live_names_.begin(), live_names_.end(), name) ==
                    live_names_.end()) {
    return false;
  }
  PendingOp op;
  op.detach_name = name;
  pending_.push_back(std::move(op));
  control_generation_.fetch_add(1, std::memory_order_release);
  return true;
}

void PipelineDriver::apply_pending_ops() {
  // The boundary fast path: one relaxed-ish atomic read per closed slide;
  // the mutex is touched only when a control operation is actually queued.
  if (control_generation_.load(std::memory_order_acquire) ==
      applied_generation_) {
    return;
  }
  std::lock_guard lock(control_mutex_);
  applied_generation_ = control_generation_.load(std::memory_order_relaxed);
  if (pending_.empty()) return;  // e.g. a detach cancelled a pending attach
  const std::uint64_t attach_slide = assembler_.slides_pushed();
  for (auto& op : pending_) {
    if (op.sink) {
      // Budget continuity: a mid-stream controller starts from the budget
      // currently in force, not from the cold-start value.
      register_sink(std::move(op.sink), std::move(op.subscription),
                    attach_slide,
                    slide_budget_.load(std::memory_order_relaxed));
    } else {
      for (auto it = queries_.begin(); it != queries_.end(); ++it) {
        if (it->sink->name() == op.detach_name) {
          if (it->subscription) it->subscription->close();
          queries_.erase(it);
          break;
        }
      }
    }
  }
  pending_.clear();
  drive_fallback_controller();
  if (const auto budget = controller_budget()) {
    // Membership changed: the strictest-target budget is rebuilt from the
    // surviving (and newly seeded) controllers. With none left, the config
    // budget takes over through the cost function at this very slide's
    // close (the no-controller path in complete_slide).
    slide_budget_.store(*budget, std::memory_order_relaxed);
  }
  live_names_.clear();
  for (const auto& q : queries_) live_names_.push_back(q.sink->name());
  live_query_count_.store(queries_.size(), std::memory_order_release);
  // Membership changed: workers provisioning NEWLY opened slides must see
  // the new spec set. Slides already open keep their old states; a spec
  // they miss surfaces as an incomplete slide and the sink withholds that
  // window's sketch payload (never a partial answer).
  publish_sketch_plan();
}

void PipelineDriver::publish_sketch_plan() {
  auto plan = std::make_shared<sketch::SketchPlan>();
  for (auto& q : queries_) {
    if (const sketch::SketchSpec* spec = q.sink->mutable_sketch_spec()) {
      plan->specs.push_back(*spec);
    }
  }
  std::lock_guard lock(sketch_plan_mutex_);
  sketch_plan_ = std::move(plan);
}

std::shared_ptr<const sketch::SketchPlan> PipelineDriver::sketch_plan() const {
  std::lock_guard lock(sketch_plan_mutex_);
  return sketch_plan_;
}

sampling::OasrsConfig PipelineDriver::slide_sampler_config(
    std::int64_t slide, std::size_t shard, std::size_t shards,
    std::size_t shard_strata, std::size_t total_strata) const {
  sampling::OasrsConfig oasrs;
  oasrs.seed = config_.seed +
               static_cast<std::uint64_t>(slide) * 1099511628211ULL +
               static_cast<std::uint64_t>(shard) * 0x9e3779b97f4a7c15ULL;
  const std::size_t budget = slide_budget_.load(std::memory_order_relaxed);
  if (shards <= 1) {
    oasrs.total_budget = budget;
  } else if (shard_strata > 0 && total_strata > 0) {
    // Occupancy-aware split: this shard holds shard_strata of the
    // total_strata sub-streams, so it deserves the same fraction of the
    // budget — Σ over shards recovers the whole budget, where the flat
    // split strands the shares of stratum-less workers.
    const std::size_t mine = std::min(shard_strata, total_strata);
    oasrs.total_budget = std::max<std::size_t>(1, budget * mine / total_strata);
  } else {
    oasrs.total_budget = std::max<std::size_t>(1, budget / shards);
  }
  return oasrs;
}

std::size_t PipelineDriver::offer_batch(const engine::Record* records,
                                        std::size_t count, std::size_t shard) {
  Shard& own = shards_[shard];
  std::lock_guard lock(own.mutex);
  const std::int64_t fence = closed_through_.load(std::memory_order_acquire);
  std::size_t accepted = 0;
  engine::for_each_slide_run(
      records, count, config_.window.slide_us,
      [&](std::int64_t slide, const engine::Record* run, std::size_t n) {
        if (slide < fence) return;  // late run: the slide already closed
        auto it = own.slides.find(slide);
        if (it == own.slides.end()) {
          it = own.slides
                   .try_emplace(slide,
                                slide_sampler_config(slide, shard,
                                                     shards_.size(),
                                                     own.occupancy_my,
                                                     own.occupancy_total),
                                *sketch_plan())
                   .first;
          // Cold start: the first close starts at the earliest slide any
          // shard opened, not at slide 0 — a stream starting at a large
          // event time (epoch-stamped taxi data) must not sweep through
          // millions of empty slides.
          std::int64_t first = first_slide_.load(std::memory_order_relaxed);
          while (slide < first &&
                 !first_slide_.compare_exchange_weak(
                     first, slide, std::memory_order_release,
                     std::memory_order_relaxed)) {
          }
        }
        it->second.absorb(run, n);
        accepted += n;
      });
  return accepted;
}

void PipelineDriver::apply_occupancy(std::size_t shard, std::size_t my_strata,
                                     std::size_t total_strata) {
  Shard& own = shards_[shard];
  std::lock_guard lock(own.mutex);
  if (my_strata == own.occupancy_my && total_strata == own.occupancy_total) {
    return;
  }
  own.occupancy_my = my_strata;
  own.occupancy_total = total_strata;
  for (auto& [slide, open] : own.slides) {
    open.sampler.set_total_budget(
        slide_sampler_config(slide, shard, shards_.size(), my_strata,
                             total_strata)
            .total_budget);
  }
}

std::optional<std::int64_t> PipelineDriver::next_to_close() const noexcept {
  if (next_to_close_) return next_to_close_;
  const std::int64_t first = first_slide_.load(std::memory_order_acquire);
  if (first == kNoSlide) return std::nullopt;
  return first;
}

std::size_t PipelineDriver::advance(std::int64_t watermark) {
  if (watermark == engine::kWatermarkFlush) return finish();
  std::size_t closed = 0;
  for (auto next = next_to_close();
       next && (*next + 1) * config_.window.slide_us <= watermark;
       next = next_to_close()) {
    close(*next);
    ++closed;
  }
  return closed;
}

std::size_t PipelineDriver::finish() {
  // The last slide any shard opened.
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    if (!shard.slides.empty()) {
      last = std::max(last, shard.slides.rbegin()->first);
    }
  }
  std::size_t closed = 0;
  for (auto next = next_to_close(); next && *next <= last;
       next = next_to_close()) {
    close(*next);  // empty interior slides advance the assembler too
    ++closed;
  }
  return closed;
}

void PipelineDriver::close(std::int64_t slide) {
  // Fence first: a feeder racing this close either got its records into its
  // shard before the extraction below (they are merged) or sees the fence
  // and drops them as late.
  closed_through_.store(slide + 1, std::memory_order_release);
  Sampler merged(slide_sampler_config(slide), engine::RecordStratum{});
  sketch::SlideSketches sketches;
  for (Shard& shard : shards_) {
    std::map<std::int64_t, SlideState>::node_type node;
    {
      std::lock_guard lock(shard.mutex);
      // Only the first close can find an earlier slide here: one a feeder
      // opened after the cold-start pin was read. Its records are late, as
      // on the sequential path, so discard it.
      while (!shard.slides.empty() && shard.slides.begin()->first < slide) {
        shard.slides.erase(shard.slides.begin());
      }
      node = shard.slides.extract(slide);
    }
    if (node) {
      merged.merge(node.mapped().sampler);
      sketches.merge(node.mapped().sketches);
    }
  }
  // The parts' kernel counters rode along through merge(); bank them before
  // take() hands the sample on. One part merged into the empty sampler
  // keeps its reservoirs unchanged, so one shard closes exactly as if it
  // had been taken directly.
  const sampling::OasrsKernelStats& stats = merged.kernel_stats();
  kernel_stats_.bulk_runs += stats.bulk_runs;
  kernel_stats_.accepted += stats.accepted;
  kernel_stats_.skipped += stats.skipped;
  close_slide_sample(slide, merged.take(), std::move(sketches));
}

void PipelineDriver::pad_until(std::int64_t slide) {
  if (!next_to_close_) {
    next_to_close_ = slide;
    assembler_.set_base_slide(slide);
  } else if (slide < *next_to_close_) {
    throw std::logic_error(
        "PipelineDriver: slides must be closed in increasing order");
  }
  while (*next_to_close_ < slide) {
    complete_slide({}, {}, {});
    ++*next_to_close_;
  }
}

void PipelineDriver::close_slide_sample(
    std::int64_t slide, sampling::StratifiedSample<engine::Record> sample,
    sketch::SlideSketches sketches) {
  pad_until(slide);
  complete_slide(estimation::summarize(sample, engine::RecordValue{}), sample,
                 sketches);
  ++*next_to_close_;
}

void PipelineDriver::complete_slide(
    std::vector<estimation::StratumSummary> cells,
    const sampling::StratifiedSample<engine::Record>& sample,
    const sketch::SlideSketches& sketches) {
  // The dynamic-lifecycle boundary: queued attach/detach operations take
  // effect here, BEFORE this slide's sink hooks — an attached sink observes
  // this slide, a detached one does not.
  apply_pending_ops();

  // The assembler-relative index of the slide being closed: the window this
  // push may emit ends at exactly this index.
  const std::uint64_t slide_index = assembler_.slides_pushed();

  // The cost-function fallback below sizes the next slide from this slide's
  // count: a detach can empty the bank at any boundary, and the fallback
  // then resumes from the freshest arrivals, not a stale snapshot.
  std::uint64_t slide_seen = 0;
  for (const auto& cell : cells) slide_seen += cell.seen;
  // Slide-granular fan-out: sinks that keep per-slide state (the HISTOGRAM
  // ring) see every closed slide, empty padded ones included.
  for (auto& q : queries_) q.sink->on_slide(cells, &sample, &sketches);

  bool fed_back = false;
  if (auto window = assembler_.push_slide(std::move(cells))) {
    WindowOutput output;
    // Sampling effort is a property of the WINDOW, counted once however
    // many queries consume it — the sample-once/answer-many invariant.
    for (const auto& cell : window->cells) {
      output.records_seen += cell.seen;
      output.records_sampled += cell.sampled;
    }
    output.budget_in_force = slide_budget_.load(std::memory_order_relaxed);
    // The estimate always carries the window's bounds, even when no query
    // is eligible for it (an empty registry, every query detached, or a
    // freshly attached one still waiting for its first whole window) —
    // consumers identify outputs by estimate.window_end_us.
    output.estimate.window_start_us = window->window_start_us;
    output.estimate.window_end_us = window->window_end_us;
    // Window fan-out: every registered query evaluates the same window —
    // except queries attached mid-window, which wait until the first
    // window made entirely of slides they observed.
    output.queries.reserve(queries_.size());
    for (auto& q : queries_) {
      if (slide_index < q.first_window_slide) continue;
      output.queries.push_back(q.sink->evaluate(*window));
      const QueryOutput& mine = output.queries.back();
      if (q.controller) {
        // Adaptive feedback (§4.2): each targeted query's controller sees
        // that query's own observed bound.
        q.controller->update(mine.observed_relative_bound);
        fed_back = true;
      }
      if (q.subscription) {
        // The per-query channel gets a self-contained WindowOutput: this
        // query's result plus the window-level sampling counters.
        WindowOutput own;
        own.estimate = mine.estimate;
        own.records_seen = output.records_seen;
        own.records_sampled = output.records_sampled;
        own.budget_in_force = output.budget_in_force;
        own.queries.push_back(mine);
        q.subscription->publish(std::move(own));
      }
    }
    if (!output.queries.empty()) {
      output.estimate = output.queries.front().estimate;
    }
    if (on_output_) on_output_(output);
  }
  if (fed_back) {
    // The strictest requirement (max budget) drives the sample size.
    // Controllers whose query had no whole window yet keep their seed
    // budget.
    slide_budget_.store(*controller_budget(), std::memory_order_relaxed);
  } else if (!controller_budget() &&
             config_.budget.kind != estimation::BudgetKind::kRelativeError) {
    // No accuracy target anywhere: re-derive the sample size from the cost
    // function using the freshest arrival count, one worker per shard. An
    // accuracy budget is the controllers' alone.
    slide_budget_.store(
        std::max<std::size_t>(1, estimation::sample_size(config_.budget,
                                                         slide_seen,
                                                         shards_.size())),
        std::memory_order_relaxed);
  }
}

}  // namespace streamapprox::core
