// The StreamApprox system facade — the component diagram of paper Fig. 1/3
// wired together for live operation: a Kafka-like topic feeds the sampling
// module (OASRS); the virtual cost function translates the user's query
// budget into a sample size; the query registry fans every assembled window
// out to N registered queries (core/query.h) whose error bounds are rigorous
// per window; and the adaptive feedback loop re-tunes the sample size
// whenever any registered accuracy target's bound is exceeded (the
// strictest query wins). The stream is ingested, sampled and windowed ONCE
// however many queries are registered.
//
// Two execution modes share the slide lifecycle in core/pipeline_driver.h:
//
//   workers == 1   one thread consumes every partition and feeds the
//                  driver's single shard (the original sequential path);
//   workers >= 2   an exchange thread re-keys the topic's partition batches
//                  by stratum hash onto N work-stealing worker threads, each
//                  feeding its sub-streams into its OWN driver shard of
//                  per-slide OASRS samplers — no synchronisation between
//                  workers during sampling (paper §3.2 Algorithm 3) — while
//                  a merger thread drives the driver's advance()/finish()
//                  from the global low-watermark; the driver's one close
//                  merges every shard's part of a slide
//                  (core/sharded.cpp).
//
// Dynamic query lifecycle: attach_query() / detach_query() work while the
// pipeline is RUNNING, in both modes. Operations take effect at the next
// slide-close boundary — an attached query reports only windows assembled
// entirely after its attach (no partial-window results), a detached query
// retires together with its FeedbackController, and the strictest-target
// budget is rebuilt on every membership change. Each attached query may get
// its own QuerySubscription output channel so consumers drain results
// independently of the run's shared WindowOutput callback.
//
// This is the public API a downstream user programs against (see
// examples/quickstart.cpp); the evaluation harness in systems.h bypasses the
// live broker for reproducible saturation measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline_driver.h"
#include "core/query.h"
#include "engine/query_cost.h"
#include "estimation/cost_function.h"
#include "estimation/feedback.h"
#include "ingest/broker.h"

namespace streamapprox::core {

/// Facade configuration.
struct StreamApproxConfig {
  /// Broker topic to consume.
  std::string topic;
  /// The registered queries, evaluated concurrently over ONE sampled stream
  /// (ingested, exchanged, sampled and windowed once; every WindowOutput
  /// carries all of their results in `WindowOutput::queries`). May be empty:
  /// windows are still emitted with their bounds and sampling counters.
  QuerySet queries;
  /// The user's query budget (fraction / latency / tokens / accuracy).
  estimation::QueryBudget budget = estimation::QueryBudget::fraction(0.6);
  /// Sliding-window geometry.
  engine::WindowConfig window{};
  /// How many records to pull per consumer poll.
  std::size_t poll_batch = 4096;
  /// Per-record query cost model (charged against sampled items).
  engine::QueryCost query_cost{};
  /// Per-record ingest cost model (parse / field conversion work charged
  /// against EVERY arriving record, before sampling) — the deployment work
  /// the paper's Kafka connector performs; what the sharded mode
  /// parallelises.
  engine::QueryCost ingest_cost{};
  /// Worker threads for the sharded execution mode. 1 (or 0) = sequential.
  /// The repartitioning exchange polls the partitions in batches and re-keys
  /// them by stratum hash onto `workers` SPSC channels, so the worker count
  /// is independent of the topic's partition count.
  std::size_t workers = 1;
  /// Records per exchange batch (the morsel size of the batched data plane).
  std::size_t exchange_batch_size = 1024;
  /// Morsel capacity of each worker's steal deque (rounded up to a power of
  /// two). A sharded worker refills its deque only once it is empty, taking
  /// at most this many batches off its exchange channel, so a refill always
  /// fits; idle workers steal from the deque, oldest morsel first. Small
  /// values keep the backlog in the channel and hand thieves one morsel at
  /// a time; the equivalence tests use capacity 2 to force steals.
  std::size_t steal_deque_capacity = 64;
  /// Grace period after which a partition that has NEVER delivered a record
  /// stops gating the watermark (Kafka's idleness rule), so a topic with
  /// more partitions than sub-streams still emits windows on a live,
  /// unsealed stream. Partitions that have delivered keep gating by their
  /// clock; an idle partition that wakes up re-gates (its records may be
  /// partly late-dropped, as with any late data).
  std::int64_t idle_partition_timeout_ms = 1000;
  /// Default confidence (in standard deviations) used when reporting error
  /// bounds and when driving the feedback loop; the paper's default is 2
  /// (95 %). Registered queries may override it per sink, so a 95 %-
  /// confidence SUM can coexist with a 99 %-confidence MEAN.
  double z = 2.0;
  /// RNG seed.
  std::uint64_t seed = 2017;
};

/// Counters and latency samples from the last run — the raw material of
/// the saved-benchmark JSON trajectories. All counters are totals across
/// workers; zeroed by every run() start. A sequential run fills `workers`
/// and the sampler_* kernel totals and leaves the scheduler and exchange
/// counters zero.
struct ShardedRunStats {
  std::size_t workers = 0;
  /// Data batches absorbed, split by how the absorbing worker got them:
  /// owner_pops + steals == batches_absorbed.
  std::uint64_t owner_pops = 0;  ///< own deque, or in place on a full deque
  std::uint64_t steals = 0;      ///< taken from another worker's deque
  /// Always 0: the scheduler has no shared overflow queue. Kept only for
  /// the performance ledger, which still reads it.
  std::uint64_t injector_pops = 0;
  std::uint64_t batches_absorbed = 0;
  std::uint64_t heartbeats_absorbed = 0;
  std::uint64_t records_absorbed = 0;
  /// Skip-ahead kernel totals: bulk runs fed to samplers, records accepted
  /// into reservoirs, and records skipped (arrived while the reservoir was
  /// saturated, so never written and never even read). accepts + skipped
  /// can trail records_absorbed when late runs are dropped before reaching
  /// a sampler.
  std::uint64_t sampler_bulk_runs = 0;
  std::uint64_t sampler_accepts = 0;
  std::uint64_t sampler_skipped = 0;
  /// Exchange routing totals: polling rounds that routed data and records
  /// routed, plus the routing kernel's cost accounting — same-stratum runs
  /// walked by pass 1, StratumTable slot probes, and pass-2 destination
  /// reserves.
  std::uint64_t exchange_rounds = 0;
  std::uint64_t exchange_records_routed = 0;
  std::uint64_t exchange_runs_walked = 0;
  std::uint64_t exchange_table_probes = 0;
  std::uint64_t exchange_scatter_reserves = 0;
  /// Records absorbed per worker index (steals shift mass between entries).
  std::vector<std::uint64_t> per_worker_records;
  /// Watermark lag sampled at each slide close: max event time routed by
  /// the exchange minus the closing slide's end (µs) — how far ingest ran
  /// ahead of the merger. Percentiles of this are the bench's lag metric.
  std::vector<std::int64_t> watermark_lag_us;
};

/// The approximate stream-analytics system.
///
/// Thread safety: run() is driven by one thread. attach_query(),
/// detach_query() and query_count() are safe from ANY thread, including
/// concurrently with a live run() (that is their purpose) and from inside
/// the run's own window callback. current_budget() is informational and
/// safe to read from the run thread between callbacks.
class StreamApprox {
 public:
  /// Binds to a broker topic. The topic must already exist.
  StreamApprox(ingest::Broker& broker, StreamApproxConfig config);

  /// Closes the channels of pre-run attaches that never reached a driver.
  ~StreamApprox();

  /// Consumes the topic until it is exhausted (sealed and fully read),
  /// invoking `on_window` for every completed sliding window. Slides are
  /// event-time based (record timestamps), so results are independent of
  /// consumption speed.
  void run(const std::function<void(const WindowOutput&)>& on_window);

  // ---- Dynamic query lifecycle (safe from any thread) --------------------

  /// Attaches a query to the pipeline — while it is RUNNING (sequential or
  /// sharded) or before run() starts. The attach takes effect at the next
  /// slide-close boundary: the query observes every slide from there on and
  /// reports only windows assembled ENTIRELY after its attach (no
  /// partial-window results). When `subscription_capacity` > 0, returns a
  /// per-query output channel the caller drains with
  /// QuerySubscription::poll() (one consumer thread); the channel closes on
  /// detach or when the run's driver is torn down, and buffered outputs
  /// stay drainable after close. Returns nullptr when no channel was
  /// requested. If the sink carries an accuracy target it joins the
  /// feedback bank seeded at the budget currently in force. Dynamic
  /// attachments are one-shot: they apply to the current (or next) run and
  /// do not modify the durable config.
  std::shared_ptr<QuerySubscription> attach_query(
      std::unique_ptr<QuerySink> sink, std::size_t subscription_capacity = 0);

  /// Detaches the query registered under `name` — config-registered or
  /// dynamically attached — at the next slide-close boundary: the sink
  /// stops observing slides, its FeedbackController (if any) retires and
  /// the strictest-target budget is rebuilt from the remaining queries
  /// (falling back to the config budget when no target remains), and its
  /// subscription channel (if any) closes after the buffered outputs.
  /// Returns true when a matching query (live, or a not-yet-applied attach,
  /// which is simply cancelled) was found.
  bool detach_query(const std::string& name);

  /// Number of queries currently registered: the live driver's
  /// boundary-applied count while running (queued operations show up once
  /// they take effect), else the configured set plus queued pre-run
  /// operations.
  std::size_t query_count() const;

  /// The per-slide sample budget currently in force (adapted over time when
  /// any registered query carries an accuracy target).
  std::size_t current_budget() const noexcept { return slide_budget_; }

  /// Scheduler/exchange counters of the most recent run() (valid after it
  /// returns; reset when the next run starts). Read from the run thread.
  const ShardedRunStats& last_run_stats() const noexcept {
    return run_stats_;
  }

 private:
  /// A dynamic attach requested before run() created a driver.
  struct PendingAttach {
    std::unique_ptr<QuerySink> sink;
    std::shared_ptr<QuerySubscription> subscription;
  };

  /// Maps the facade configuration onto the slide-lifecycle driver's.
  PipelineDriverConfig driver_config() const;

  /// True when `name` addresses a config-registered query.
  bool config_has_query(const std::string& name) const;

  /// Hands queued pre-run control operations to the freshly built driver
  /// and publishes it as the live attach/detach target.
  void install_driver(PipelineDriver& driver);

  /// Unpublishes the live driver (run_* teardown).
  void uninstall_driver();

  /// RAII wrapper: install on entry, uninstall on scope exit.
  class DriverInstallation {
   public:
    DriverInstallation(StreamApprox& system, PipelineDriver& driver)
        : system_(system) {
      system_.install_driver(driver);
    }
    ~DriverInstallation() { system_.uninstall_driver(); }
    DriverInstallation(const DriverInstallation&) = delete;
    DriverInstallation& operator=(const DriverInstallation&) = delete;

   private:
    StreamApprox& system_;
  };

  /// Single-threaded execution: one consumer, driver-owned samplers.
  void run_sequential(const std::function<void(const WindowOutput&)>& on_window);

  /// Sharded execution: exchange-fed workers + watermark-gated merger.
  void run_sharded(const std::function<void(const WindowOutput&)>& on_window);

  /// The end of both run_* paths: flushes every slide still open and
  /// records the final budget and the driver's sampler kernel totals.
  void finish_run(PipelineDriver& driver);

  ingest::Broker& broker_;
  StreamApproxConfig config_;
  std::size_t slide_budget_ = 0;
  ShardedRunStats run_stats_;

  /// Guards the control plane hand-off (live driver pointer + queued
  /// pre-run operations). Never touched by the data plane.
  mutable std::mutex control_mutex_;
  PipelineDriver* live_driver_ = nullptr;
  std::vector<PendingAttach> pre_run_attaches_;
  std::vector<std::string> pre_run_detaches_;
};

}  // namespace streamapprox::core
