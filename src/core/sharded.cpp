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
// morsel is absorbed into the THIEF's local per-slide samplers — safe
// because OASRS samplers merge associatively at slide close (the merger
// concatenates whatever shard holds each stratum's reservoir), so per-window
// records_seen is schedule-independent. A worker refills its deque only once
// it is empty, with at most its capacity, so a refill always fits and the
// channel ring is the only backlog: the deque is the one queue tier between
// the exchange and the samplers. Out-of-order completion is reconciled by
// ChannelProgress below.
//
// Every worker samples with LOCAL per-slide OASRS samplers — no lock is
// shared between two workers on the sampling hot path (each worker's mutex
// exists only to hand closed slides to the merger) — and all ingest is
// batch-at-a-time: one mutex acquisition and one slide-map lookup per run of
// same-slide records, never a per-record offer() loop.
//
//   merger           once the low-watermark passes a slide's end, extracts
//                    that slide's sampler from every worker, concatenates
//                    them with OasrsSampler::merge(), and closes the slide
//                    through the shared PipelineDriver — estimator inputs
//                    identical to the sequential path modulo stratum order,
//                    because the exchange's stratum hash sends each stratum
//                    to exactly one channel.
//
// The adaptive feedback loop still works: the merger re-tunes the driver's
// budget as windows complete (max across every registered query's accuracy
// target — see core/query.h), and workers read the atomic budget when they
// open samplers for new slides. The per-slide budget is split across
// workers by STRATUM OCCUPANCY (budget · my_strata/total_strata, stamped on
// exchange batches), not by the flat budget/workers share that undershoots
// when strata spread unevenly. Query
// evaluation itself lives entirely behind the driver's query registry, so
// the sharded data plane is byte-for-byte the same whether one query or N
// are registered — and queries may attach/detach mid-run: the merger
// applies registry changes at slide-close boundaries, workers never notice.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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

constexpr std::int64_t kNoSlide = std::numeric_limits<std::int64_t>::max();

/// Worker-local state the merger reaches into: the per-slide states of one
/// shard, guarded by a mutex the owning worker holds only while applying a
/// polled batch (never across polls, never against another worker).
struct Shard {
  std::mutex mutex;
  std::map<std::int64_t, PipelineDriver::SlideState> slides;
  /// The stratum-occupancy share last applied to this shard's samplers:
  /// `occupancy_my` of `occupancy_total` strata route here, so new slide
  /// samplers get budget · my/total instead of the flat budget/workers
  /// split (which undershoots whenever strata spread unevenly — the
  /// quickstart's 3 strata over 4 workers sampled ~half the budget).
  std::size_t occupancy_my = 0;
  std::size_t occupancy_total = 0;
};

void atomic_min(std::atomic<std::int64_t>& target, std::int64_t value) {
  std::int64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

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

/// Everything the workers and the merger share.
struct ShardedPlan {
  PipelineDriver& driver;
  std::vector<Shard>& shards;
  std::size_t workers;
  std::int64_t slide_us;
  /// The earliest slide observed anywhere (the cold-start base slide).
  std::atomic<std::int64_t> first_slide{kNoSlide};
  /// Slides below this are closed; workers drop records for them as late.
  std::atomic<std::int64_t> closed_through{
      std::numeric_limits<std::int64_t>::min()};
  std::atomic<std::size_t> workers_done{0};
  /// Skip-ahead kernel totals, accumulated by the merger at each slide close
  /// (worker sampler stats ride along through OasrsSampler::merge).
  std::atomic<std::uint64_t> sampler_bulk_runs{0};
  std::atomic<std::uint64_t> sampler_accepts{0};
  std::atomic<std::uint64_t> sampler_skipped{0};

  ShardedPlan(PipelineDriver& driver, std::vector<Shard>& shards,
              std::size_t workers, std::int64_t slide_us)
      : driver(driver), shards(shards), workers(workers), slide_us(slide_us) {}
};

/// Applies an occupancy stamp to worker `w`'s shard. When the stamp changed,
/// every open sampler's budget is re-tuned to the new occupancy share —
/// shrinks apply to live reservoirs immediately (a uniform subsample stays
/// uniform), growth applies at the sampler's next reset. Caller holds the
/// shard mutex.
void apply_occupancy_locked(ShardedPlan& plan, std::size_t w, Shard& shard,
                            std::size_t my_strata, std::size_t total_strata) {
  if (my_strata == shard.occupancy_my &&
      total_strata == shard.occupancy_total) {
    return;
  }
  shard.occupancy_my = my_strata;
  shard.occupancy_total = total_strata;
  for (auto& [slide, open] : shard.slides) {
    open.sampler.set_total_budget(
        plan.driver
            .slide_sampler_config(slide, w, plan.workers, my_strata,
                                  total_strata)
            .total_budget);
  }
}

/// Routes one exchange batch into worker `w`'s local per-slide states: one
/// mutex acquisition per batch, one slide-map lookup and one
/// SlideState::absorb per run of consecutive same-slide records. The
/// batch's stratum-occupancy stamp drives the occupancy-aware budget split.
/// `apply_stamp` is false when a thief absorbs a STOLEN morsel: the victim
/// channel's stamp describes the victim's stratum set, not the thief's, so
/// the thief keeps its own occupancy share (records_seen is unaffected
/// either way).
void absorb_batch(ShardedPlan& plan, std::size_t w,
                  const engine::RecordBatch& batch, bool apply_stamp) {
  Shard& shard = plan.shards[w];
  std::lock_guard lock(shard.mutex);
  if (apply_stamp) {
    apply_occupancy_locked(plan, w, shard, batch.route_strata,
                           batch.total_strata);
  }
  const std::int64_t frozen =
      plan.closed_through.load(std::memory_order_acquire);
  engine::for_each_slide_run(
      batch.records.data(), batch.size(), plan.slide_us,
      [&](std::int64_t slide, const engine::Record* run, std::size_t n) {
        if (slide < frozen) return;  // late beyond merged watermark
        auto it = shard.slides.find(slide);
        if (it == shard.slides.end()) {
          it = shard.slides
                   .try_emplace(slide,
                                plan.driver.slide_sampler_config(
                                    slide, w, plan.workers,
                                    shard.occupancy_my,
                                    shard.occupancy_total),
                                *plan.driver.sketch_plan())
                   .first;
          atomic_min(plan.first_slide, slide);
        }
        // Sketches digest the FULL stream (sampling happens beside them),
        // whichever worker the run landed on — merge exactness makes the
        // final per-slide state independent of that placement.
        it->second.absorb(run, n);
      });
}

/// The merger: watermark-gated slide closing, run in the calling thread
/// until every worker finished. `clocks` are the per-channel republished
/// watermarks; the exchange already resolved the idleness policy into the
/// values it forwarded, so no grace applies here.
void merge_until_done(ShardedPlan& plan,
                      std::vector<std::atomic<std::int64_t>>& clocks,
                      const std::function<void(std::int64_t)>& after_close) {
  const auto close_one = [&](std::int64_t slide) {
    // Freeze the slide first: a racing worker either got its records in
    // before extraction (they are merged) or sees the fence and drops them
    // as late — exactly the sequential path's late-record rule.
    plan.closed_through.store(slide + 1, std::memory_order_release);
    PipelineDriver::Sampler merged(plan.driver.slide_sampler_config(slide),
                                   engine::RecordStratum{});
    sketch::SlideSketches merged_sketches;
    for (auto& shard : plan.shards) {
      std::map<std::int64_t, PipelineDriver::SlideState>::node_type node;
      {
        std::lock_guard lock(shard.mutex);
        // Stranded entries below the closing slide are late beyond the
        // watermark (e.g. an idle-excluded partition woke with old data
        // after slides passed it): discard them, matching the sequential
        // path, which drops such records at offer time.
        while (!shard.slides.empty() &&
               shard.slides.begin()->first < slide) {
          shard.slides.erase(shard.slides.begin());
        }
        node = shard.slides.extract(slide);
      }
      if (node) {
        merged.merge(node.mapped().sampler);
        merged_sketches.merge(node.mapped().sketches);
      }
    }
    // Kernel counters rode along through merge(); the extracted per-slide
    // samplers are destroyed below, so this is the one place to bank them.
    const auto& ks = merged.kernel_stats();
    plan.sampler_bulk_runs.fetch_add(ks.bulk_runs, std::memory_order_relaxed);
    plan.sampler_accepts.fetch_add(ks.accepted, std::memory_order_relaxed);
    plan.sampler_skipped.fetch_add(ks.skipped, std::memory_order_relaxed);
    plan.driver.close_slide_sample(slide, merged.take(),
                                   std::move(merged_sketches));
    after_close(slide);
  };

  std::optional<std::int64_t> next;
  bool any_closed = false;
  std::vector<std::int64_t> clock_snapshot(clocks.size());
  for (;;) {
    const bool all_done =
        plan.workers_done.load(std::memory_order_acquire) == plan.workers;
    for (std::size_t c = 0; c < clocks.size(); ++c) {
      clock_snapshot[c] = clocks[c].load(std::memory_order_acquire);
    }
    const auto view =
        evaluate_watermark(clock_snapshot, /*idle_grace_over=*/false);
    const std::int64_t lo = plan.first_slide.load(std::memory_order_acquire);
    bool progressed = false;
    if (lo != kNoSlide && !view.blocked) {
      if (!next) {
        next = lo;
      } else if (!any_closed) {
        // Nothing closed yet: a slow channel may have delivered an even
        // earlier slide since the pin — include it rather than strand it.
        *next = std::min(*next, lo);
      }
      for (;;) {
        bool ripe = false;
        if (view.flush_all()) {
          // No source gates (drained and/or idle past grace): flush through
          // the last open slide so output is never stranded.
          std::int64_t hi = std::numeric_limits<std::int64_t>::min();
          for (auto& shard : plan.shards) {
            std::lock_guard lock(shard.mutex);
            if (!shard.slides.empty()) {
              hi = std::max(hi, shard.slides.rbegin()->first);
            }
          }
          ripe = hi != std::numeric_limits<std::int64_t>::min() && *next <= hi;
        } else {
          ripe = (*next + 1) * plan.slide_us <= view.watermark;
        }
        if (!ripe) break;
        close_one(*next);
        ++*next;
        any_closed = true;
        progressed = true;
      }
    }
    if (all_done) break;
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

}  // namespace

void StreamApprox::run_sharded(
    const std::function<void(const WindowOutput&)>& on_window) {
  const std::size_t workers = config_.workers;
  const std::int64_t slide_us = config_.window.slide_us;

  PipelineDriver driver(driver_config(), on_window);
  const DriverInstallation installation(*this, driver);
  slide_budget_ = driver.current_budget();

  std::vector<Shard> shards(workers);
  ShardedPlan plan(driver, shards, workers, slide_us);

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

  const auto after_close = [&](std::int64_t slide) {
    slide_budget_ = driver.current_budget();
    // Watermark lag: how far ingest had run ahead of this close.
    const std::int64_t max_event = exchange.max_routed_event_us();
    if (max_event != engine::kNoWatermark) {
      run_stats_.watermark_lag_us.push_back(max_event -
                                            (slide + 1) * slide_us);
    }
  };

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

        // Absorbs one data morsel into THIS worker's local samplers. Owner
        // morsels apply their occupancy stamp; stolen ones keep the thief's
        // share (absorb_batch comment). Completion is reported after the
        // samplers hold the records — the watermark invariant.
        const auto absorb = [&](engine::RecordBatch* raw) {
          ingest::Exchange::BatchPtr batch(raw);
          for (const auto& record : batch->records) {
            ingest_acc += config_.ingest_cost.charge(record.value);
          }
          absorb_batch(plan, w, *batch, /*apply_stamp=*/batch->channel == w);
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
            Shard& shard = plan.shards[w];
            std::lock_guard lock(shard.mutex);
            apply_occupancy_locked(plan, w, shard, batch->route_strata,
                                   batch->total_strata);
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
        plan.workers_done.fetch_add(1, std::memory_order_release);
      });
    }
    merge_until_done(plan, clocks, after_close);
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
  run_stats_.sampler_bulk_runs = plan.sampler_bulk_runs.load();
  run_stats_.sampler_accepts = plan.sampler_accepts.load();
  run_stats_.sampler_skipped = plan.sampler_skipped.load();

  driver.finish();  // no-op safeguard: external mode leaves nothing open
  slide_budget_ = driver.current_budget();
}

}  // namespace streamapprox::core
