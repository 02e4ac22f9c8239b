#include "ingest/exchange.h"

#include <algorithm>

#include "common/backoff.h"
#include "common/clock.h"
#include "core/watermark.h"
#include "ingest/stratum_table.h"

namespace streamapprox::ingest {

Exchange::Exchange(Broker& broker, const std::string& topic,
                   ExchangeConfig config)
    : config_(config), pool_(std::max<std::size_t>(1, config.batch_size)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  const std::size_t partitions = broker.topic(topic).partition_count();
  for (std::size_t p = 0; p < partitions; ++p) {
    inputs_.emplace_back(broker, topic, std::vector<std::size_t>{p});
  }
  rings_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    rings_.push_back(std::make_unique<SpscRing<BatchPtr>>(
        std::max<std::size_t>(2, config_.ring_capacity)));
  }
  next_seq_.assign(config_.workers, 0);
}

void Exchange::run() {
  run([this](BatchPtr batch) {
    // Ring full means the downstream worker is behind: backpressure by
    // parking on the ring's condvar until the consumer frees a slot — no
    // sleep-loop spinning while blocked. The rings are closed only below,
    // after the loop, so a false return is unreachable here.
    const std::uint32_t w = batch->channel;
    rings_[w]->push(std::move(batch));
  });
  for (auto& ring : rings_) ring->close();
}

void Exchange::run(const Emit& emit) {
  const std::size_t partitions = inputs_.size();
  const std::size_t workers = config_.workers;

  // Per-partition high-water clocks (exchange-thread local: the exchange is
  // the only gate keeper; receivers see only resolved watermarks).
  std::vector<std::int64_t> clocks(partitions, core::kNoClock);
  std::vector<std::int64_t> round_clock(partitions);
  std::vector<BatchPtr> out(workers);
  // Stratum-occupancy bookkeeping for the budget split: this thread sees
  // every record in deterministic order, so the counts stamped onto batches
  // are reproducible regardless of downstream thread timing. Occupancy lives
  // in the flat StratumTable (one probe chain per run boundary).
  StratumTable strata_table;
  std::vector<std::uint32_t> channel_strata(workers, 0);
  // The last watermark each channel was told, so heartbeats only go to
  // channels that would otherwise fall behind.
  std::vector<std::int64_t> last_sent(workers, engine::kNoWatermark);
  // One pooled batch reused as the input fill target: each poll is a single
  // lock acquisition into recycled storage.
  BatchPtr scratch = pool_.acquire();
  // Grace window for partitions that have never delivered: restarted on
  // every round that routes data, so a partition that goes quiet mid-stream
  // earns a fresh idle_partition_timeout_ms from its LAST data round, not
  // from exchange start-up (a once-started stopwatch would mark every
  // momentary lull grace-expired after the first timeout).
  Stopwatch grace;
  IdleBackoff backoff;

  // Routing-kernel scratch, reused across rounds so the steady state allocates
  // nothing. A RouteRun is pass 1's product: a same-stratum run of the
  // polled batch plus the channel it routes to.
  struct RouteRun {
    std::uint32_t offset;
    std::uint32_t length;
    std::uint32_t channel;
  };
  std::vector<RouteRun> route_runs;
  std::vector<std::uint32_t> scatter_counts(workers, 0);

  // Two-pass routing kernel, called once per non-empty polled batch.
  //
  // Pass 1 (route / histogram) walks the batch run-at-a-time — strata
  // arrive in runs, and when they do not the inner while simply stops after
  // one record — computing the Fibonacci route once per run, probing the
  // stratum table once per run boundary, and accumulating the per-channel
  // record histogram. The partition clock is a separate tight max-reduction
  // over event times (no hash, no branch on route).
  //
  // Pass 2 (reserve / scatter) sizes each destination batch once from the
  // histogram, then copies records run-by-run with append_run. When the WHOLE
  // polled batch routes to one still-empty destination (the steady state on
  // sorted / strongly run-structured streams), the scatter collapses to a
  // vector swap: the records move wholesale, zero per-record work.
  //
  // The output is that of a record-at-a-time router: channels are filled in
  // per-round partition order, records keep their input order (pass 2
  // iterates runs in offset order per channel), and occupancy increments
  // happen at each stratum's first occurrence in record order, so the
  // stamps every receiver uses for the budget split are deterministic.
  const auto route_batch = [&](engine::RecordBatch& src,
                               std::int64_t& partition_clock) {
    const engine::Record* recs = src.records.data();
    const std::size_t n = src.records.size();
    route_runs.clear();
    std::fill(scatter_counts.begin(), scatter_counts.end(), 0);
    std::size_t i = 0;
    while (i < n) {
      const sampling::StratumId stratum = recs[i].stratum;
      std::size_t end = i + 1;
      while (end < n && recs[end].stratum == stratum) ++end;
      const auto w = static_cast<std::uint32_t>(route(stratum, workers));
      if (strata_table.insert(stratum)) ++channel_strata[w];
      route_runs.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(end - i), w});
      scatter_counts[w] += static_cast<std::uint32_t>(end - i);
      i = end;
    }
    stats_.runs += route_runs.size();
    std::int64_t clock = partition_clock;
    for (std::size_t j = 0; j < n; ++j) {
      clock = std::max(clock, recs[j].event_time_us);
    }
    partition_clock = clock;
    // Morsel pass-through: every run routed to one channel whose batch is
    // still empty this round -> move the vector.
    if (!route_runs.empty() &&
        scatter_counts[route_runs.front().channel] == n) {
      const std::uint32_t w = route_runs.front().channel;
      if (!out[w]) out[w] = pool_.acquire();
      if (out[w]->records.empty()) {
        out[w]->records.swap(src.records);
        return;
      }
    }
    for (std::size_t w = 0; w < workers; ++w) {
      if (scatter_counts[w] == 0) continue;
      if (!out[w]) out[w] = pool_.acquire();
      out[w]->records.reserve(out[w]->records.size() + scatter_counts[w]);
      ++stats_.scatter_reserves;
    }
    // One ordered pass over the run array: each channel's batch end IS its
    // write cursor (runs arrive in offset order and every channel was sized
    // above), so the scatter is O(runs) dispatch + O(routed) copying.
    for (const RouteRun& rr : route_runs) {
      out[rr.channel]->append_run(recs + rr.offset, rr.length);
    }
  };

  for (;;) {
    bool any_data = false;
    std::fill(round_clock.begin(), round_clock.end(), core::kNoClock);
    for (std::size_t p = 0; p < partitions; ++p) {
      if (inputs_[p].exhausted()) continue;
      inputs_[p].poll(*scratch, config_.batch_size, /*timeout_ms=*/0);
      if (scratch->empty()) continue;
      any_data = true;
      stats_.records += scratch->records.size();
      route_batch(*scratch, round_clock[p]);
    }

    if (any_data) {
      ++stats_.rounds;
      grace.restart();
      backoff.reset();
      // One relaxed store per data round: fold the round's clock maxes,
      // publish if they advanced the high-water mark. Monotonicity is
      // preserved — this thread is the only writer.
      std::int64_t round_max = engine::kNoWatermark;
      for (std::size_t p = 0; p < partitions; ++p) {
        round_max = std::max(round_max, round_clock[p]);
      }
      if (round_max > max_routed_event_us_.load(std::memory_order_relaxed)) {
        max_routed_event_us_.store(round_max, std::memory_order_relaxed);
      }
    }

    bool all_drained = true;
    for (std::size_t p = 0; p < partitions; ++p) {
      if (round_clock[p] != core::kNoClock) {
        clocks[p] = std::max(clocks[p], round_clock[p]);
      }
      if (inputs_[p].exhausted()) {
        clocks[p] = core::kPartitionDrained;
      } else {
        all_drained = false;
      }
    }

    // Resolve the policy-complete watermark. The clocks only cover records
    // already routed into this round's output batches, and those batches are
    // emitted below in channel FIFO order before any receiver can observe
    // the value — so absorbing a batch stamped W implies every record below
    // W bound for that channel has been absorbed or is in the same batch.
    const bool grace_over =
        grace.millis() >
        static_cast<double>(config_.idle_partition_timeout_ms);
    const auto view = core::evaluate_watermark(clocks, grace_over);
    // resolve_watermark's sentinels are numerically the engine's watermark
    // sentinels, so the policy-complete value is forwarded unchanged.
    const std::int64_t resolved = core::resolve_watermark(view);

    const auto total_strata =
        static_cast<std::uint32_t>(strata_table.size());
    for (std::size_t w = 0; w < workers; ++w) {
      if (out[w] && !out[w]->empty()) {
        out[w]->watermark_us = resolved;
        out[w]->route_strata = channel_strata[w];
        out[w]->total_strata = total_strata;
        stamp_identity(w, *out[w]);
        ++stats_.batches;
        emit(std::move(out[w]));
        last_sent[w] = resolved;
      } else if (last_sent[w] != resolved) {
        // Watermark-only heartbeat: a channel with no data in flight must
        // still learn the watermark or its receiver could never close behind
        // it (and the end-of-stream flush would never reach it).
        // Heartbeats recycle through their own zero-reserve pool — a stalled
        // topology ticks watermarks without pinning record capacity.
        auto heartbeat = heartbeat_pool_.acquire();
        heartbeat->watermark_us = resolved;
        heartbeat->route_strata = channel_strata[w];
        heartbeat->total_strata = total_strata;
        heartbeat->heartbeat = true;
        stamp_identity(w, *heartbeat);
        ++stats_.heartbeats;
        emit(std::move(heartbeat));
        last_sent[w] = resolved;
      }
    }

    if (all_drained) break;
    if (!any_data) {
      // Nothing anywhere this round: escalate spin -> yield -> capped sleep
      // instead of always paying a fixed doze, so a briefly-starved exchange
      // resumes in microseconds while a deeply idle one still parks.
      backoff.pause();
    }
  }

  stats_.table_probes = strata_table.probes();
  pool_.release(std::move(scratch));
}

}  // namespace streamapprox::ingest
