// The repartitioning exchange stage of the batched data plane: an operator
// that consumes record batches from a subset of a topic's partitions and
// re-keys them by stratum hash onto M single-producer/single-consumer
// channels, so the number of downstream workers is decoupled from the
// topic's partition count (a 2-partition topic can feed 8 workers). This is
// the exchange operator of morsel-driven engines (Leis et al., SIGMOD'14)
// applied to the paper's Kafka deployment: batches, not records, cross
// thread boundaries. The exchange reads every partition of the topic (one
// consumer per partition, each polled once per round) and emits at most one
// batch per channel per round; a batch's channel index is its worker index.
// It is the ingest front end of both facade modes: run(emit) hands each
// batch to a callback on the calling thread (the one-worker path drains its
// one channel inline), and run() pushes each into its channel's ring for a
// worker thread (the sharded path).
//
// Watermark transport. The exchange owns the per-partition high-water clocks
// and the idle-partition grace policy of core/watermark.h, min-combines them
// into one resolved low-watermark per round, and forwards it downstream
// embedded in every batch (plus watermark-only heartbeat batches when it
// changes with no data in flight). Clocks advance only AFTER the records
// they cover have been handed to the channels, and channels are FIFO, so a
// receiver that has absorbed a batch stamped with watermark W has absorbed
// every record below W that will ever reach it — the low-watermark guarantee
// survives repartitioning. Because the resolved value is policy-complete
// (kNoWatermark while a silent partition is within grace, kWatermarkFlush
// when nothing gates), receivers apply no grace logic of their own.
//
// Stratum affinity. route() is deterministic in the stratum, so every record
// of one sub-stream reaches the same channel and no lock is shared while
// sampling (§3.2). A stolen morsel is still sampled in the thief's shard,
// so the driver's close merges a split stratum's parts with
// OasrsSampler::merge() (see core/sharded.cpp).
//
// Occupancy stamps. The exchange thread also counts, in deterministic
// record order, how many distinct strata have routed to each channel
// (RecordBatch::route_strata) out of the total seen (::total_strata), and
// stamps both onto every batch and heartbeat. Receivers use the stamp to
// split the per-slide sample budget proportionally to the strata they
// actually own — without it, a flat budget/workers split undershoots the
// effective sampling fraction whenever strata spread unevenly over workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/queue.h"
#include "engine/record_batch.h"
#include "ingest/broker.h"

namespace streamapprox::ingest {

/// Exchange tuning knobs.
struct ExchangeConfig {
  /// Number of output channels (downstream workers). >= 1.
  std::size_t workers = 1;
  /// Records per emitted batch (the morsel size) and per input poll.
  std::size_t batch_size = 1024;
  /// Batches buffered per output channel before the exchange backpressures.
  std::size_t ring_capacity = 64;
  /// Grace period for partitions that never delivered (core/watermark.h).
  std::int64_t idle_partition_timeout_ms = 1000;
};

/// Routing-loop accounting, written by the exchange thread while run() is
/// live and safe to read after it returns. `runs` / `table_probes` /
/// `scatter_reserves` make the two-pass routing kernel's O(runs + routed)
/// cost observable.
struct ExchangeStats {
  /// Polling rounds that routed at least one record.
  std::uint64_t rounds = 0;
  /// Records routed downstream (counted at poll time).
  std::uint64_t records = 0;
  /// Data batches emitted across all channels.
  std::uint64_t batches = 0;
  /// Watermark-only heartbeat batches emitted across all channels.
  std::uint64_t heartbeats = 0;
  /// Same-stratum runs walked by the routing kernel's pass 1.
  std::uint64_t runs = 0;
  /// StratumTable slot inspections (one probe chain per run boundary).
  std::uint64_t table_probes = 0;
  /// Destination-batch reserve calls made by pass 2 (one per channel that
  /// received data from a polled batch).
  std::uint64_t scatter_reserves = 0;
};

/// Repartitions a topic's partition batches onto worker channels by stratum
/// hash, forwarding the min-combined low-watermark. run() is driven by ONE
/// thread; with run(), each output channel is consumed by exactly one worker
/// thread (SPSC discipline at both ends of every ring).
class Exchange {
 public:
  using BatchPtr = std::unique_ptr<engine::RecordBatch>;
  /// Receives one stamped batch (data or heartbeat; `channel` names its
  /// output channel) on the thread driving run(emit). The receiver hands the
  /// batch back through recycle() once consumed.
  using Emit = std::function<void(BatchPtr)>;

  Exchange(Broker& broker, const std::string& topic, ExchangeConfig config);

  /// The repartition loop: polls every partition, routes, stamps
  /// watermarks and hands every batch to `emit` on the calling thread in
  /// per-channel FIFO order; returns once every partition is exhausted
  /// (sealed and fully read). Leaves the channel rings untouched.
  void run(const Emit& emit);

  /// run(emit) pushing each batch into its channel's ring, parked while the
  /// ring is full; closes every ring on return. Call from a dedicated thread.
  void run();

  /// Pops the next batch of channel `w` (null when none is ready). The
  /// caller owns the batch until it hands it back via recycle().
  BatchPtr pop(std::size_t w) {
    auto batch = rings_[w]->try_pop();
    return batch ? std::move(*batch) : nullptr;
  }

  /// Drains up to `max` batches of channel `w` into `out` (appending) in one
  /// ring synchronisation; returns the number taken. The batch-out mirror of
  /// Consumer::poll: the morsel scheduler refills its whole deque per call.
  std::size_t pop_n(std::size_t w, std::vector<BatchPtr>& out,
                    std::size_t max) {
    return rings_[w]->pop_n(out, max);
  }

  /// True when channel `w` is closed and fully consumed (end of stream).
  bool drained(std::size_t w) const { return rings_[w]->drained(); }

  /// Returns a consumed batch to the pool it came from (heartbeats recycle
  /// through a dedicated zero-reserve pool so they never pin record
  /// capacity).
  void recycle(BatchPtr batch) {
    if (!batch) return;
    if (batch->heartbeat) {
      heartbeat_pool_.release(std::move(batch));
    } else {
      pool_.release(std::move(batch));
    }
  }

  /// The stratum -> channel map (Fibonacci-mixed hash, deterministic): every
  /// record of one sub-stream lands on one channel.
  static std::size_t route(sampling::StratumId stratum, std::size_t workers) {
    std::uint64_t h = static_cast<std::uint64_t>(stratum) + 1;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h % workers);
  }

  // ---- Introspection ------------------------------------------------------

  /// Highest event time routed downstream so far (kNoWatermark before any).
  /// The merger subtracts a slide's end from this at close time to measure
  /// watermark lag — how far ingest had run ahead when the slide sealed.
  std::int64_t max_routed_event_us() const noexcept {
    return max_routed_event_us_.load(std::memory_order_relaxed);
  }
  /// Routing-loop accounting. Plain (non-atomic) counters written by the
  /// exchange thread: read only after run() returns (a thread join orders
  /// the accesses).
  const ExchangeStats& stats() const noexcept { return stats_; }

 private:
  /// Stamps morsel identity: the channel (worker) index plus the channel's
  /// gapless sequence number (the completion tracker's contiguous-prefix
  /// input).
  void stamp_identity(std::size_t w, engine::RecordBatch& batch) {
    batch.channel = static_cast<std::uint32_t>(w);
    batch.seq = next_seq_[w]++;
  }

  ExchangeConfig config_;
  std::vector<Consumer> inputs_;  ///< one consumer per partition
  std::vector<std::unique_ptr<SpscRing<BatchPtr>>> rings_;
  engine::BatchPool pool_;
  /// Watermark-only heartbeats: zero capacity reserve, recycled separately.
  engine::BatchPool heartbeat_pool_{0};
  std::vector<std::uint64_t> next_seq_;  ///< per-channel, exchange thread only

  std::atomic<std::int64_t> max_routed_event_us_{engine::kNoWatermark};
  ExchangeStats stats_;  ///< exchange thread only; read after run() joins
};

}  // namespace streamapprox::ingest
