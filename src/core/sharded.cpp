// Sharded execution of the StreamApprox facade — the paper's central
// "no synchronisation between workers" claim (§3.2, Algorithm 3) realised
// over a batched morsel data plane:
//
//   exchange         one exchange thread polls every partition in batches
//                    and re-keys them by stratum hash onto one SPSC channel
//                    per worker (ingest/exchange.h), so the worker count is
//                    independent of the topic's partition count; each batch
//                    carries the exchange's resolved low-watermark, and
//                    workers report absorption through a per-channel
//                    completion tracker so the merger's min-combined
//                    watermark never runs ahead of the samples.
//
// Work-stealing morsel scheduler. Workers are not statically bound to their
// channels: each worker refills a per-worker StealDeque (common/queue.h)
// from its own channel and works LIFO off the bottom; when its own work runs
// out it steals the OLDEST morsel off another worker's deque. A stolen
// morsel is absorbed into the THIEF's driver shard — safe because OASRS
// samplers merge associatively at slide close (the driver concatenates
// whatever shard holds each stratum's reservoir), so per-window
// records_seen is schedule-independent. A worker refills its deque only once
// it is empty, with at most its capacity, so a refill always fits and the
// channel ring is the only backlog: the deque is the one queue tier between
// the exchange and the samplers. Out-of-order completion is reconciled by
// ChannelProgress below.
//
// Every worker feeds its own shard of the PipelineDriver
// (PipelineDriver::offer_batch(records, n, w)) — no lock is shared between
// two workers on the sampling hot path; a shard's mutex is taken once per
// batch by its worker and once per slide close by the merger, which
// extracts the closing slide from it. All ingest is batch-at-a-time, never
// a per-record offer() loop.
//
//   merger           the calling thread evaluates the channels' watermark
//                    and drives the driver's advance()/finish(): once the
//                    low-watermark passes a slide's end, the driver's one
//                    close merges every shard's part of the slide with
//                    OasrsSampler::merge() — estimator inputs identical to
//                    the sequential path modulo stratum order, because the
//                    exchange's stratum hash sends each stratum to exactly
//                    one channel.
//
// The adaptive feedback loop still works: the merger's closes re-tune the
// driver's budget as windows complete (max across every registered query's
// accuracy target — see core/query.h), and workers read the atomic budget
// when their shard opens a slide. The per-slide budget is split across
// workers by STRATUM OCCUPANCY (budget · my_strata/total_strata, stamped on
// exchange batches and applied through PipelineDriver::apply_occupancy), not
// by the flat budget/workers share that undershoots when strata spread
// unevenly. Query evaluation itself lives entirely behind the driver's query
// registry, so the sharded data plane is byte-for-byte the same whether one
// query or N are registered — and queries may attach/detach mid-run: the
// merger applies registry changes at slide-close boundaries, workers never
// notice.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/thread_pool.h"
#include "core/stream_approx.h"
#include "core/watermark.h"
#include "engine/record_batch.h"
#include "ingest/exchange.h"

namespace streamapprox::core {
namespace {

/// Morsel-completion tracker for the work-stealing scheduler. Stolen morsels
/// are absorbed out of channel order, but a channel's watermark clock may
/// only cover records already in samplers — so each channel's clock advances
/// over the CONTIGUOUS PREFIX of completed sequence numbers, publishing the
/// watermark of the last batch in the prefix. The exchange stamps seqs
/// gaplessly per channel (heartbeats included), so the prefix always catches
/// up; per-shard watermarks are monotone, so the published clock is too.
class ChannelProgress {
 public:
  ChannelProgress(std::size_t channels,
                  std::vector<std::atomic<std::int64_t>>& clocks)
      : states_(channels), clocks_(clocks) {}

  /// Reports batch (channel, seq) absorbed with watermark `watermark_us`.
  void complete(std::uint32_t channel, std::uint64_t seq,
                std::int64_t watermark_us) {
    State& state = states_[channel];
    std::lock_guard lock(state.mutex);
    state.pending.emplace(seq, watermark_us);
    std::int64_t publish = kNoClock;
    bool advanced = false;
    while (!state.pending.empty() &&
           state.pending.begin()->first == state.next) {
      publish = state.pending.begin()->second;
      state.pending.erase(state.pending.begin());
      ++state.next;
      advanced = true;
    }
    // Publish under the lock: two thieves finishing prefixes back-to-back
    // must store in prefix order or the clock could transiently regress.
    if (advanced) clocks_[channel].store(publish, std::memory_order_release);
  }

 private:
  struct State {
    std::mutex mutex;
    std::uint64_t next = 0;  ///< first sequence number not yet completed
    std::map<std::uint64_t, std::int64_t> pending;  ///< completed, gapped
  };
  std::vector<State> states_;
  std::vector<std::atomic<std::int64_t>>& clocks_;
};

/// Cross-worker totals of the morsel scheduler, flushed once per worker at
/// exit (the hot loop counts into locals).
struct SchedulerCounters {
  std::atomic<std::uint64_t> owner_pops{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> heartbeats{0};
  std::atomic<std::uint64_t> records{0};
};

}  // namespace

void StreamApprox::run_sharded(
    const std::function<void(const WindowOutput&)>& on_window) {
  const std::size_t workers = config_.workers;
  const std::int64_t slide_us = config_.window.slide_us;

  // One driver shard per worker: each worker feeds its own open slides.
  PipelineDriver driver(driver_config(), on_window, {}, workers);
  const DriverInstallation installation(*this, driver);
  slide_budget_ = driver.current_budget();

  // One exchange repartitions the topic onto per-worker channels; workers
  // run the morsel scheduler.
  const std::size_t deque_capacity =
      std::max<std::size_t>(2, config_.steal_deque_capacity);
  run_stats_.workers = workers;
  run_stats_.per_worker_records.assign(workers, 0);

  ingest::ExchangeConfig exchange_config;
  exchange_config.workers = workers;
  exchange_config.batch_size = config_.exchange_batch_size;
  exchange_config.idle_partition_timeout_ms =
      config_.idle_partition_timeout_ms;
  ingest::Exchange exchange(broker_, config_.topic, exchange_config);

  // One watermark clock per channel (= worker), advanced only by the
  // completion tracker — so a clock covers exactly the contiguously absorbed
  // prefix of its channel, and the merger's min over the W clocks never runs
  // ahead of the samples (core::resolve_watermark).
  std::vector<std::atomic<std::int64_t>> clocks(workers);
  for (auto& clock : clocks) {
    clock.store(kNoClock, std::memory_order_relaxed);
  }
  ChannelProgress progress(workers, clocks);

  // The scheduler's one queue tier: a steal deque per worker.
  std::vector<std::unique_ptr<StealDeque<engine::RecordBatch*>>> deques;
  deques.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    deques.push_back(
        std::make_unique<StealDeque<engine::RecordBatch*>>(deque_capacity));
  }
  SchedulerCounters counters;
  std::atomic<std::size_t> workers_done{0};

  {
    ThreadPool pool(workers + 1);
    pool.submit([&] {
      set_current_thread_name("sa-exch");
      exchange.run();
    });
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit([&, w] {
        set_current_thread_name(("sa-work-" + std::to_string(w)).c_str());
        // Volatile-sunk at exit so the parse-work model survives
        // optimisation.
        double ingest_acc = 0.0;
        std::uint64_t n_owner = 0, n_steal = 0, n_batches = 0,
                      n_heartbeats = 0, n_records = 0;

        // Absorbs one data morsel into THIS worker's driver shard. Only an
        // owner morsel applies its occupancy stamp: a stolen one's stamp
        // describes the victim channel's strata, not the thief's, so the
        // thief keeps its own share (records_seen is unaffected either way).
        // Completion is reported after the shard holds the records — the
        // watermark invariant.
        const auto absorb = [&](engine::RecordBatch* raw) {
          ingest::Exchange::BatchPtr batch(raw);
          for (const auto& record : batch->records) {
            ingest_acc += config_.ingest_cost.charge(record.value);
          }
          if (batch->channel == w) {
            driver.apply_occupancy(w, batch->route_strata, batch->total_strata);
          }
          driver.offer_batch(batch->records.data(), batch->size(), w);
          ++n_batches;
          n_records += batch->size();
          progress.complete(batch->channel, batch->seq, batch->watermark_us);
          exchange.recycle(std::move(batch));
        };

        // Heartbeats never enter the deques (no records to steal): the owner
        // applies the occupancy stamp and completes them inline. A heartbeat
        // can shrink open samplers when another channel discovered a
        // stratum.
        const auto handle_heartbeat = [&](ingest::Exchange::BatchPtr batch) {
          if (batch->total_strata > 0) {
            driver.apply_occupancy(w, batch->route_strata, batch->total_strata);
          }
          ++n_heartbeats;
          progress.complete(batch->channel, batch->seq, batch->watermark_us);
          exchange.recycle(std::move(batch));
        };

        StealDeque<engine::RecordBatch*>& deque = *deques[w];
        std::vector<ingest::Exchange::BatchPtr> inbox;
        inbox.reserve(deque_capacity);

        // Refills this worker's deque from its own channel. Runs only after
        // pop_bottom found the deque empty, and only the owner pushes, so the
        // at most deque_capacity batches taken always fit; the in-place
        // absorb is the fallback that keeps a morsel from being stranded if
        // that invariant ever broke.
        const auto refill = [&]() -> bool {
          inbox.clear();
          if (exchange.pop_n(w, inbox, deque_capacity) == 0) return false;
          for (auto& polled : inbox) {
            if (polled->heartbeat) {
              handle_heartbeat(std::move(polled));
              continue;
            }
            engine::RecordBatch* raw = polled.release();
            if (!deque.push_bottom(raw)) {
              absorb(raw);
              ++n_owner;
            }
          }
          return true;
        };

        for (;;) {
          // 1. Own deque, newest first (cache-warm LIFO).
          if (auto raw = deque.pop_bottom()) {
            absorb(*raw);
            ++n_owner;
            continue;
          }
          // 2. Refill from the own channel (also exposes backlog to thieves).
          if (refill()) continue;
          // 3. Steal the oldest morsel off another worker's deque.
          bool stole = false;
          for (std::size_t offset = 1; offset < workers && !stole; ++offset) {
            if (auto raw = deques[(w + offset) % workers]->steal_top()) {
              absorb(*raw);
              ++n_steal;
              stole = true;
            }
          }
          if (stole) continue;
          // 4. Exit once the own channel is drained. The deque is empty here
          // (step 1 found it so, and only its owner pushes), so every morsel
          // of this channel has been absorbed or is held by a thief, which
          // completes it before it exits.
          if (exchange.drained(w)) break;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }

        volatile double ingest_sink = ingest_acc;
        (void)ingest_sink;
        counters.owner_pops.fetch_add(n_owner, std::memory_order_relaxed);
        counters.steals.fetch_add(n_steal, std::memory_order_relaxed);
        counters.batches.fetch_add(n_batches, std::memory_order_relaxed);
        counters.heartbeats.fetch_add(n_heartbeats, std::memory_order_relaxed);
        counters.records.fetch_add(n_records, std::memory_order_relaxed);
        run_stats_.per_worker_records[w] = n_records;
        workers_done.fetch_add(1, std::memory_order_release);
      });
    }

    // The merger: watermark-gated slide closing in this thread until every
    // worker finished. The channel clocks already carry the exchange's
    // resolved idleness policy, so no grace applies here.
    std::vector<std::int64_t> clock_snapshot(workers);
    for (;;) {
      const bool all_done =
          workers_done.load(std::memory_order_acquire) == workers;
      for (std::size_t c = 0; c < workers; ++c) {
        clock_snapshot[c] = clocks[c].load(std::memory_order_acquire);
      }
      const auto view =
          evaluate_watermark(clock_snapshot, /*idle_grace_over=*/false);
      std::size_t closed = 0;
      if (view.can_close()) {
        closed = driver.advance(view.watermark);
      } else if (view.flush_all()) {
        closed = driver.finish();
      }
      if (closed > 0) {
        slide_budget_ = driver.current_budget();
        // Watermark lag: how far ingest had run ahead of each close.
        const std::int64_t max_event = exchange.max_routed_event_us();
        if (max_event != engine::kNoWatermark) {
          const std::int64_t next = *driver.next_to_close();
          for (auto slide = next - static_cast<std::int64_t>(closed);
               slide < next; ++slide) {
            run_stats_.watermark_lag_us.push_back(max_event -
                                                  (slide + 1) * slide_us);
          }
        }
      }
      if (all_done) break;
      if (closed == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  }  // joins the pool: counters and per-worker records are final below

  run_stats_.owner_pops = counters.owner_pops.load();
  run_stats_.steals = counters.steals.load();
  run_stats_.batches_absorbed = counters.batches.load();
  run_stats_.heartbeats_absorbed = counters.heartbeats.load();
  run_stats_.records_absorbed = counters.records.load();
  // Routing-loop accounting: plain counters of the exchange thread, final
  // once the join above ordered them.
  const ingest::ExchangeStats& routing = exchange.stats();
  run_stats_.exchange_rounds = routing.rounds;
  run_stats_.exchange_records_routed = routing.records;
  run_stats_.exchange_runs_walked = routing.runs;
  run_stats_.exchange_table_probes = routing.table_probes;
  run_stats_.exchange_scatter_reserves = routing.scatter_reserves;
  finish_run(driver);  // the merger's last pass normally left nothing open
}

}  // namespace streamapprox::core
