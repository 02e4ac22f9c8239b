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
// Both execution modes read the topic through one repartitioning exchange
// (ingest/exchange.h), which polls every partition, keeps the partition
// clocks and the idle-partition grace, and stamps the resolved
// low-watermark on every batch; both feed the slide lifecycle in
// core/pipeline_driver.h and close slides behind that watermark:
//
//   workers == 1   the run thread drives a one-channel exchange inline:
//                  each batch is charged, offered to the driver's single
//                  shard and closed behind before the next round is
//                  polled, so a sealed topic replays deterministically;
//   workers >= 2   an exchange thread re-keys the topic's partition batches
//                  by stratum hash onto N work-stealing worker threads, each
//                  feeding its sub-streams into its OWN driver shard of
//                  per-slide OASRS samplers — no synchronisation between
//                  workers during sampling (paper §3.2 Algorithm 3) — while
//                  a merger thread closes behind the min of the channels'
//                  absorbed watermarks; the driver's one close merges every
//                  shard's part of a slide (core/sharded.cpp).
//
// Dynamic query lifecycle: attach_query() / detach_query() work while the
// pipeline is RUNNING, in both modes. Operations take effect at the next
// slide-close boundary — an attached query reports only windows assembled
// entirely after its attach (no partial-window results), a detached query
// retires together with its FeedbackController, and the strictest-target
// budget is rebuilt on every membership change. Each attached query may get
// its own QuerySubscription output channel so consumers drain results
// independently of the run's shared WindowOutput callback. The facade keeps
// no registry of its own: it forwards every operation to the driver of its
// current or next run, so operations made before run() follow the same
// rules and take effect at that run's first slide close.
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
#include "ingest/broker.h"

namespace streamapprox::ingest {
class Exchange;
}  // namespace streamapprox::ingest

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
  /// Records per partition poll of the exchange when workers <= 1 (the
  /// sharded mode polls exchange_batch_size).
  std::size_t poll_batch = 4096;
  /// Per-record ingest cost model (parse / field conversion work charged
  /// against EVERY arriving record, before sampling) — the deployment work
  /// the paper's Kafka connector performs; what the sharded mode
  /// parallelises.
  engine::QueryCost ingest_cost{};
  /// Worker threads for the sharded execution mode. 1 (or 0) = sequential.
  /// The repartitioning exchange polls the partitions in batches and re-keys
  /// them by stratum hash onto `workers` channels, so the worker count is
  /// independent of the topic's partition count. A latency budget allows
  /// each worker its own throughput.
  std::size_t workers = 1;
  /// Records per partition poll of the exchange when workers >= 2, which
  /// bounds each morsel of the batched data plane (the one-worker mode polls
  /// poll_batch).
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
/// workers; zeroed by every run() start. Both modes fill every field: a
/// one-worker run absorbs each batch of its one channel in place, so its
/// steals are 0 and owner_pops equals batches_absorbed.
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
  /// Sampler totals: same-stratum runs fed to samplers, records written
  /// into reservoirs, and records offered but not written (the reservoir
  /// was full and rejected them). accepts + skipped can trail
  /// records_absorbed when late runs are dropped before reaching a sampler.
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
  /// ahead of the close. Percentiles of this are the bench's lag metric.
  std::vector<std::int64_t> watermark_lag_us;
};

/// The approximate stream-analytics system.
///
/// Thread safety: run() is driven by one thread. attach_query(),
/// detach_query() and query_count() are safe from ANY thread, including
/// concurrently with a live run() (that is their purpose) and from inside
/// the run's own window callback. last_run_stats() is read from the run
/// thread.
class StreamApprox {
 public:
  /// Binds to a broker topic. The topic must already exist.
  StreamApprox(ingest::Broker& broker, StreamApproxConfig config);

  /// Consumes the topic until it is exhausted (sealed and fully read),
  /// invoking `on_window` for every completed sliding window. Slides are
  /// event-time based (record timestamps), so results are independent of
  /// consumption speed.
  void run(const std::function<void(const WindowOutput&)>& on_window);

  // ---- Dynamic query lifecycle (safe from any thread) --------------------

  /// Attaches a query on the driver of the current run, or of the next run
  /// when none is running, under PipelineDriver::attach_query's rules: it
  /// takes effect at that run's next slide-close boundary and reports only
  /// windows assembled ENTIRELY after it. When `subscription_capacity` > 0,
  /// returns a per-query output channel the caller drains with
  /// QuerySubscription::poll() (one consumer thread); the channel closes on
  /// detach, when the run ends, or with the facade if no run started, and
  /// buffered outputs stay drainable after close. Otherwise, or for a null
  /// sink, returns nullptr. Dynamic attachments are one-shot: they apply to
  /// the current (or next) run and do not modify the durable config.
  std::shared_ptr<QuerySubscription> attach_query(
      std::unique_ptr<QuerySink> sink, std::size_t subscription_capacity = 0);

  /// Detaches the query registered under `name` — config-registered or
  /// dynamically attached — on the driver of the current or next run, under
  /// PipelineDriver::detach_query's rules: a not-yet-applied attach is
  /// cancelled at once; a live query retires at the next slide-close
  /// boundary with its FeedbackController, the strictest-target budget is
  /// rebuilt, and its channel closes after the buffered outputs. Returns
  /// false when the name is unknown or its detach is already queued.
  bool detach_query(const std::string& name);

  /// Number of queries on the driver of the current or next run,
  /// boundary-applied: a queued attach or detach shows from that run's next
  /// slide close on. The configured set when no operation was made since
  /// construction or the last run.
  std::size_t query_count() const;

  /// Scheduler/exchange counters of the most recent run() (valid after it
  /// returns; reset when the next run starts). Read from the run thread.
  const ShardedRunStats& last_run_stats() const noexcept {
    return run_stats_;
  }

 private:
  /// The driver of the current or next run, built from the config on first
  /// use: one shard per feeding thread (the run thread, or each worker),
  /// output through the running call's window callback. Call with
  /// control_mutex_ held.
  PipelineDriver& driver_locked();

  /// Sharded execution (core/sharded.cpp): runs `exchange` on its own
  /// thread, one work-stealing worker per channel feeding its own shard of
  /// `driver`, and the merger on the calling thread. Fills the scheduler
  /// counters of run_stats_.
  void run_sharded(PipelineDriver& driver, ingest::Exchange& exchange);

  /// Closes every slide `watermark` (a resolved exchange watermark) lets
  /// close, then records each closed slide's watermark lag. Returns the
  /// number of slides closed.
  std::size_t close_behind(PipelineDriver& driver,
                           const ingest::Exchange& exchange,
                           std::int64_t watermark);

  ingest::Broker& broker_;
  StreamApproxConfig config_;
  ShardedRunStats run_stats_;
  /// The running call's window callback. Set and read on the run thread
  /// only: the driver's lifecycle thread is the run thread in both modes.
  const std::function<void(const WindowOutput&)>* on_window_ = nullptr;

  /// Guards driver_. Never touched by the data plane.
  mutable std::mutex control_mutex_;
  /// The driver of the current or next run; reset when run() returns.
  std::unique_ptr<PipelineDriver> driver_;
};

}  // namespace streamapprox::core
