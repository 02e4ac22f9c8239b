// The reusable slide-lifecycle engine every execution path runs on.
//
// StreamApprox processes a stream as a sequence of event-time slides; for
// each slide it must (1) hold an OASRS sampler while the slide is open,
// (2) close the slide once the low-watermark passes its end, turning the
// sample into per-stratum summary cells, (3) assemble closed slides into
// sliding windows, and (4) fan each assembled window out to every registered
// QuerySink (core/query.h), whose observed error bounds feed back into the
// sample budget (§4.2 adaptive feedback, strictest query wins). The driver
// itself is lifecycle-only: what gets evaluated — which aggregations, which
// histograms, at which confidence — lives entirely in the query registry,
// so N concurrent queries ride one ingested, sampled, windowed stream.
//
// Records and closed slides reach the lifecycle through two entry points:
//
//   * live ingest      — offer_batch(records, n, shard) feeds one of the
//     driver's per-shard stores of open slides: one shard per feeding
//     thread, so 1 on the sequential path and one per worker on the
//     sharded path (paper §3.2: each worker samples its own sub-streams).
//     advance(watermark) and finish() close slides through the driver's one
//     close, which fences the slide, merges every shard's part of it and
//     hands the merged sample on. The caller owns the watermark;
//   * external closes  — close_slide_cells() takes per-slide cells from the
//     evaluation harness's engines (core/systems.cpp), and
//     close_slide_sample() takes a sample the caller drew itself (the
//     performance ledger's staged pass).
//
// Dynamic query lifecycle. The registry is LIVE: attach_query() and
// detach_query() may be called from any thread while the lifecycle runs.
// Control operations are generation-stamped and queued; the lifecycle
// thread applies them at the next slide-close boundary, so
//
//   * an attached sink observes every slide from its boundary on and
//     evaluates only windows whose EVERY slide it observed — no
//     partial-window results (its first window starts at or after the
//     attach boundary);
//   * a detached sink stops at its boundary, its FeedbackController retires
//     with it, and the FeedbackBank's strictest-target budget is rebuilt;
//   * the data plane is untouched: feeders and the sampling hot path never
//     see the control mutex — complete_slide reads one atomic generation
//     counter per slide and takes the lock only when membership actually
//     changed (the RCU-ish "check a stamp, swap at a safe point" shape).
//
// Thread safety: each feeder thread calls offer_batch() and
// apply_occupancy() for its own shard only. A shard's mutex is taken once
// per batch by its feeder and once per close by the lifecycle thread, so no
// lock is shared between two feeders. Exactly one lifecycle thread drives
// advance/finish/close_slide_* and next_to_close()/kernel_stats(); the late
// fence and the cold-start pin it shares with the feeders are atomics.
// attach_query/detach_query/registry_generation, current_budget(),
// slide_sampler_config() and sketch_plan() are safe from any thread.
// Everything else is lifecycle-thread-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/queue.h"
#include "core/query.h"
#include "engine/query_cost.h"
#include "engine/window.h"
#include "estimation/cost_function.h"
#include "estimation/feedback.h"
#include "sampling/oasrs.h"

namespace streamapprox::core {

/// Per-window output delivered to the user: every registered query's
/// evaluated result plus the sampling effort that produced them. The
/// sampling counters are per WINDOW, not per query — the stream is sampled
/// once regardless of how many queries are registered.
struct WindowOutput {
  /// The first registered query's estimate; `queries` carries every
  /// registered query's output. The window bounds are set even when no query
  /// evaluated the window.
  WindowEstimate estimate;
  std::uint64_t records_seen = 0;     ///< Σ C_i in the window
  std::uint64_t records_sampled = 0;  ///< Σ Y_i in the window
  std::size_t budget_in_force = 0;    ///< per-slide sample budget used
  /// Every registered query's output, in registration order. Queries
  /// attached mid-stream appear only from their first whole window on.
  std::vector<QueryOutput> queries;
};

/// A per-query output channel: the consumer end of an SPSC ring the
/// lifecycle thread publishes one WindowOutput into per eligible window.
/// Obtained from attach_query(); lets each consumer drain its query's
/// results at its own pace instead of sharing the run's single WindowOutput
/// callback.
///
/// Thread safety: poll()/finished()/dropped() may be called by ONE consumer
/// thread (SPSC discipline — the lifecycle thread is the only producer).
/// The ring closes when the query is detached or the driver is destroyed;
/// buffered outputs remain drainable after close.
class QuerySubscription {
 public:
  /// Creates a channel buffering up to `capacity` window outputs.
  explicit QuerySubscription(std::size_t capacity) : ring_(capacity) {}

  /// Non-blocking: the next buffered window output, or nullopt when none is
  /// ready yet.
  std::optional<WindowOutput> poll() { return ring_.try_pop(); }

  /// True once the query was detached (or the run ended) AND every buffered
  /// output has been drained — the consumer's termination condition.
  bool finished() const { return ring_.drained(); }

  /// Window outputs discarded because the ring was full when the lifecycle
  /// thread published (the consumer fell behind; the lifecycle never blocks
  /// on a slow subscriber). Size the capacity for the consumer's drain rate.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class PipelineDriver;
  /// The facade closes channels of pre-run attaches it cancels or discards
  /// (no driver exists yet to do it).
  friend class StreamApprox;

  /// Lifecycle thread only: non-blocking publish, drop-newest when full.
  void publish(WindowOutput output) {
    if (!ring_.try_push(std::move(output))) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Lifecycle thread (detach boundary) or driver teardown.
  void close() { ring_.close(); }

  SpscRing<WindowOutput> ring_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Configuration of the slide lifecycle.
struct PipelineDriverConfig {
  /// The registered queries evaluated per window. May be empty: windows are
  /// still emitted with their bounds and sampling counters.
  QuerySet queries;
  /// The user's query budget (fraction / latency / tokens / accuracy). An
  /// accuracy budget becomes the default target of registered aggregate
  /// queries that carry no explicit per-query target.
  estimation::QueryBudget budget = estimation::QueryBudget::fraction(0.6);
  /// Sliding-window geometry.
  engine::WindowConfig window{};
  /// Per-record query cost model, charged against sampled items at close.
  engine::QueryCost query_cost{};
  /// Default confidence (standard deviations) for bounds and the feedback
  /// loop; individual queries may override it per sink.
  double z = 2.0;
  /// RNG seed; per-slide sampler seeds are derived deterministically.
  std::uint64_t seed = 2017;
  /// Sample budget before any arrival statistics exist; the cost function /
  /// feedback loop re-tunes it from the first completed slide on.
  std::size_t initial_budget = 1024;
  /// When false, windows are reported raw (on_window) without query
  /// evaluation — the evaluation harness computes its own metrics.
  bool evaluate = true;
};

/// Drives slides from open to closed to windowed, with adaptive feedback
/// and a live query registry. See the file comment for the threading model.
class PipelineDriver {
 public:
  /// The per-slide OASRS sampler type shared by all execution paths.
  using Sampler =
      sampling::OasrsSampler<engine::Record, engine::RecordStratum>;
  using OutputFn = std::function<void(const WindowOutput&)>;
  /// Takes the window by value: raw-window mode moves it out, keeping the
  /// evaluation harness's timed loop free of per-window cell copies.
  using WindowFn = std::function<void(engine::WindowResult)>;

  /// Creates a driver. `on_output` receives evaluated window outputs (may be
  /// null when config.evaluate is false); `on_window` receives the raw
  /// window cells (may be null). `shards` is the number of feeding threads
  /// live ingest runs on: 1 on the sequential path, one per worker on the
  /// sharded path.
  PipelineDriver(PipelineDriverConfig config, OutputFn on_output,
                 WindowFn on_window = {}, std::size_t shards = 1);

  /// Closes every live subscription channel so consumers observe
  /// finished() once they drain.
  ~PipelineDriver();

  // ---- Live ingest (each feeder thread on its own shard) -----------------

  /// Routes one record into its slide on shard 0: offer_batch over one
  /// record. Returns true when the record was accepted.
  bool offer(const engine::Record& record) {
    return offer_batch(&record, 1) == 1;
  }

  /// The one way records enter a slide: routes a batch into `shard`'s open
  /// slides under one shard-mutex acquisition, with one slide lookup per
  /// run of consecutive same-slide records (event-time-ordered input makes
  /// runs long). A shard opens a slide's sampler with its occupancy share
  /// of the budget (apply_occupancy). Records of already-closed slides
  /// (late beyond the watermark) are dropped. `shard` must be below the
  /// shard count given at construction. Returns the number of records
  /// accepted.
  std::size_t offer_batch(const engine::Record* records, std::size_t count,
                          std::size_t shard = 0);

  /// Convenience overload over a whole vector, on shard 0.
  std::size_t offer_batch(const std::vector<engine::Record>& records) {
    return offer_batch(records.data(), records.size());
  }

  /// Records that `my_strata` of `total_strata` known strata route to
  /// `shard` (the exchange's occupancy stamp), so slides the shard opens
  /// get budget · my/total instead of the flat budget/shards split. When
  /// the stamp changed, every sampler the shard holds open is re-tuned to
  /// the new share: shrinks apply to live reservoirs immediately (a uniform
  /// subsample stays uniform), growth at the sampler's next reset. Called
  /// by the shard's own feeder, for its own batches and heartbeats only.
  void apply_occupancy(std::size_t shard, std::size_t my_strata,
                       std::size_t total_strata);

  // ---- Slide close (lifecycle thread only) -------------------------------

  /// Closes every slide whose end `watermark` has passed. The caller owns
  /// the watermark computation (per-partition clocks with exhausted and
  /// idle partitions excluded — see StreamApprox::run_sequential /
  /// run_sharded); the driver owns only the slide lifecycle. Returns the
  /// number of slides closed.
  std::size_t advance(std::int64_t watermark);

  /// No source gates any more (input exhausted, or every source idle):
  /// closes every slide through the last one any shard opened, interior
  /// empty slides included so the window assembler stays aligned. Returns
  /// the number of slides closed.
  std::size_t finish();

  /// Closes `slide` with an externally produced stratified sample and the
  /// sketch state collected beside it. Slides must arrive in increasing
  /// order; interior gaps are padded with empty slides. The first call pins
  /// the cold-start slide index.
  void close_slide_sample(std::int64_t slide,
                          sampling::StratifiedSample<engine::Record> sample,
                          sketch::SlideSketches sketches);

  /// Closes `slide` with pre-summarised cells (engines that aggregate
  /// without materialising a sample). Same ordering contract as
  /// close_slide_sample. No histogram contribution.
  void close_slide_cells(std::int64_t slide,
                         std::vector<estimation::StratumSummary> cells);

  /// Sampler configuration for one shard of one slide. The seed is
  /// deterministic in (driver seed, slide, shard); shard 0 of 1 reproduces
  /// the sequential path's sampler exactly. The total budget in force is
  /// split across `shards` by STRATUM OCCUPANCY when it is known —
  /// `shard_strata` sub-streams routed to this shard out of `total_strata`
  /// overall gets budget * shard_strata / total_strata — and by the flat
  /// budget / shards fallback when occupancy is not supplied (either count
  /// 0). The flat split undershoots whenever strata spread unevenly (3
  /// strata over 4 workers sample ~half the budget); occupancy-aware shares
  /// restore Σ shard budgets ≈ budget. Safe from any thread (reads only the
  /// atomic budget and immutable config).
  sampling::OasrsConfig slide_sampler_config(std::int64_t slide,
                                             std::size_t shard = 0,
                                             std::size_t shards = 1,
                                             std::size_t shard_strata = 0,
                                             std::size_t total_strata = 0)
      const;

  /// Immutable snapshot of the sketch specs in force — a shard takes one
  /// when it opens a slide, to provision the slide's SlideSketches.
  /// Rebuilt at registration boundaries; safe from any thread.
  std::shared_ptr<const sketch::SketchPlan> sketch_plan() const;

  // ---- Dynamic query lifecycle (safe from ANY thread) --------------------

  /// Queues `sink` for attachment at the next slide-close boundary. From
  /// that boundary the sink observes every closed slide (on_slide) and
  /// evaluates every window all of whose slides it observed — it never
  /// reports a window that was partially assembled before attach. When
  /// `subscription_capacity` > 0 the query gets its own output channel
  /// (returned; drain with QuerySubscription::poll) in addition to
  /// appearing in the shared WindowOutput::queries; with capacity 0 no
  /// channel is created and nullptr is returned. If the sink carries an
  /// accuracy target (explicit, or inherited from an accuracy-kind budget),
  /// its FeedbackController joins the bank seeded at the budget currently
  /// in force.
  std::shared_ptr<QuerySubscription> attach_query(
      std::unique_ptr<QuerySink> sink, std::size_t subscription_capacity = 0);

  /// As above with a caller-provided channel (may be null) — the facade
  /// uses this to create subscriptions before the driver exists.
  void attach_query(std::unique_ptr<QuerySink> sink,
                    std::shared_ptr<QuerySubscription> subscription);

  /// Queues detachment of the first query registered under `name`, effective
  /// at the next slide-close boundary: the sink stops observing slides, its
  /// controller (if any) retires and the FeedbackBank budget is rebuilt
  /// from the remaining targets, and its subscription channel (if any)
  /// closes after the buffered outputs. Returns true when a live query or a
  /// still-pending attach matched (a pending attach is simply cancelled);
  /// false when the name is unknown.
  bool detach_query(const std::string& name);

  /// Monotone registry generation: bumps every time attach/detach
  /// operations actually take effect at a boundary. Lets tests and
  /// monitors await "membership changed".
  std::uint64_t registry_generation() const noexcept {
    return registry_generation_.load(std::memory_order_acquire);
  }

  /// Number of live (boundary-applied) queries.
  std::size_t query_count() const noexcept {
    return live_query_count_.load(std::memory_order_acquire);
  }

  // ---- Introspection ------------------------------------------------------

  /// The per-slide sample budget currently in force (atomic: feeders read
  /// it when their shard opens a slide, concurrently with the lifecycle
  /// thread re-tuning it).
  std::size_t current_budget() const noexcept {
    return slide_budget_.load(std::memory_order_relaxed);
  }

  /// The next slide index to close; before the first close, the earliest
  /// slide any shard opened (the cold-start fix: a stream starting at a
  /// large event time does not sweep through millions of empty slides from
  /// zero); nullopt before the first record/close. Lifecycle thread only.
  std::optional<std::int64_t> next_to_close() const noexcept;

  /// Skip-ahead kernel totals of every slide closed on the live path: bulk
  /// runs fed to samplers, records accepted into reservoirs, and records
  /// skipped. Banked at each close (the shards' counters ride along through
  /// OasrsSampler::merge). Lifecycle thread only.
  const sampling::OasrsKernelStats& kernel_stats() const noexcept {
    return kernel_stats_;
  }

  /// The window geometry in force. Immutable after construction.
  const engine::WindowConfig& window_config() const noexcept {
    return config_.window;
  }

 private:
  /// Slide index sentinel: no shard has opened a slide yet.
  static constexpr std::int64_t kNoSlide =
      std::numeric_limits<std::int64_t>::max();

  /// One shard's part of one open slide: the OASRS sampler plus the sketch
  /// states collecting beside it over the full, unsampled record stream.
  /// The parts of a slide merge at its close — the sampler
  /// distribution-identically, the sketches exactly.
  struct SlideState {
    Sampler sampler;
    sketch::SlideSketches sketches;

    SlideState(sampling::OasrsConfig config, const sketch::SketchPlan& plan)
        : sampler(std::move(config), engine::RecordStratum{}),
          sketches(plan) {}

    /// The one place records reach a sampler and sketches: the sampler
    /// segments the run into maximal same-stratum runs for its skip-ahead
    /// kernel, the sketches digest every record.
    void absorb(const engine::Record* run, std::size_t n) {
      sampler.offer_batch(run, n);
      sketches.absorb(run, n);
    }
  };

  /// One feeding thread's open slides. The mutex is held by the feeder for
  /// one batch or stamp, and by the lifecycle thread while a close extracts
  /// the closing slide or finish() looks up the last one.
  struct Shard {
    std::mutex mutex;
    std::map<std::int64_t, SlideState> slides;
    /// The stratum-occupancy share last applied (apply_occupancy): 0/0
    /// until a stamp arrives, which keeps the flat budget/shards split.
    std::size_t occupancy_my = 0;
    std::size_t occupancy_total = 0;
  };

  /// One live registry entry: the sink plus its lifecycle bookkeeping.
  struct RegisteredQuery {
    std::unique_ptr<QuerySink> sink;
    /// Stable FeedbackBank id when the query drives a controller.
    std::optional<std::size_t> controller;
    /// First slide index (assembler-relative) whose window this query may
    /// evaluate: attach_slide + slides_per_window - 1, so every evaluated
    /// window consists solely of slides the sink observed.
    std::uint64_t first_window_slide = 0;
    /// Optional per-query output channel.
    std::shared_ptr<QuerySubscription> subscription;
  };

  /// A queued control-plane operation (attach or detach).
  struct PendingOp {
    std::unique_ptr<QuerySink> sink;  ///< attach when set
    std::shared_ptr<QuerySubscription> subscription;
    std::string detach_name;          ///< detach when sink is null
  };

  /// Registers one sink into the live registry (constructor seeding and
  /// boundary attach share it). Lifecycle thread only.
  void register_sink(std::unique_ptr<QuerySink> sink,
                     std::shared_ptr<QuerySubscription> subscription,
                     std::uint64_t attach_slide, std::size_t seed_budget);

  /// Applies queued attach/detach operations at a slide-close boundary and
  /// rebuilds the feedback budget if membership changed. Cheap when nothing
  /// is pending (one relaxed atomic load).
  void apply_pending_ops();

  /// The config-level fallback accuracy target (set when the run's budget
  /// is accuracy-kind).
  std::optional<double> fallback_target() const;

  /// Rebuilds the published sketch plan from the live registry. Lifecycle
  /// thread only (constructor seeding and registration boundaries).
  void publish_sketch_plan();

  /// The one close of the live path: fences `slide` so feeders drop its
  /// late records, extracts its part from every shard, merges the parts,
  /// banks their kernel counters and closes the merged slide.
  void close(std::int64_t slide);

  /// Pads empty closed slides so `slide` becomes the next to close; the
  /// first call pins the assembler's base slide.
  void pad_until(std::int64_t slide);

  /// The shared lifecycle tail: pending registry ops apply, then cells
  /// (+ the materialised sample when one exists) of one closed slide go
  /// through every registered sink's slide hook, the window assembler, the
  /// query fan-out (shared callback + per-query channels) and the feedback
  /// loop.
  void complete_slide(std::vector<estimation::StratumSummary> cells,
                      const sampling::StratifiedSample<engine::Record>* sample,
                      const sketch::SlideSketches* sketches);

  PipelineDriverConfig config_;
  OutputFn on_output_;
  WindowFn on_window_;

  engine::SlidingWindowAssembler assembler_;
  estimation::CostFunction cost_function_;
  /// One controller per accuracy-targeted query; budget = max across them.
  estimation::FeedbackBank feedback_;
  std::atomic<std::size_t> slide_budget_;

  /// The live query registry in registration order. Lifecycle thread only;
  /// other threads interact via the control plane below.
  std::vector<RegisteredQuery> queries_;

  // ---- Control plane (attach/detach hand-off) ----------------------------
  /// Guards pending_ and live_names_. Never taken on the data hot path: the
  /// lifecycle thread takes it at most once per slide close, and only when
  /// the generation stamp says something is pending.
  mutable std::mutex control_mutex_;
  std::vector<PendingOp> pending_;
  /// Names of the live queries, mirrored under control_mutex_ so
  /// detach_query can validate without touching the lifecycle-owned
  /// registry.
  std::vector<std::string> live_names_;
  /// Bumped on every enqueue; lifecycle thread compares against
  /// applied_generation_ to skip the lock when nothing is pending.
  std::atomic<std::uint64_t> control_generation_{0};
  std::uint64_t applied_generation_ = 0;  ///< lifecycle thread only
  std::atomic<std::uint64_t> registry_generation_{0};
  std::atomic<std::size_t> live_query_count_{0};

  // ---- Sketch plan (worker-visible spec snapshot) ------------------------
  /// Guards sketch_plan_ only (leaf lock: taken under control_mutex_ when
  /// registration rebuilds the plan, and alone by workers snapshotting it).
  mutable std::mutex sketch_plan_mutex_;
  std::shared_ptr<const sketch::SketchPlan> sketch_plan_;
  /// Next sketch-spec id to assign (ids are unique per driver).
  std::uint64_t next_sketch_id_ = 1;

  // ---- Live ingest (feeders and the lifecycle thread) ---------------------
  /// One per feeding thread; sized at construction, never resized.
  std::vector<Shard> shards_;
  /// The late fence: slides below it are closed, and feeders drop their
  /// records. Stored by close() before it extracts the slide.
  std::atomic<std::int64_t> closed_through_{
      std::numeric_limits<std::int64_t>::min()};
  /// The cold-start pin: the earliest slide any shard opened. The first
  /// close starts there, not at slide 0.
  std::atomic<std::int64_t> first_slide_{kNoSlide};
  /// The next slide to close; set by the first close. Lifecycle thread only.
  std::optional<std::int64_t> next_to_close_;
  sampling::OasrsKernelStats kernel_stats_;

  std::uint64_t last_slide_seen_ = 0;
  std::vector<estimation::StratumSummary> last_cells_;
};

}  // namespace streamapprox::core
