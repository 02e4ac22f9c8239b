// The morsel of the batched data plane: a reusable vector of records plus
// the transport metadata the repartitioning exchange forwards alongside the
// data (low-watermark, occupancy stamp, morsel identity). Batches are
// recycled through a BatchPool so steady-state polling and exchange hops
// allocate nothing
// (morsel-driven execution, Leis et al. SIGMOD'14 — batch-at-a-time transfer
// between operators instead of one virtual call per record).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/record.h"

namespace streamapprox::engine {

/// Watermark sentinel: no watermark has been established yet. Numerically
/// identical to core::kNoClock so the two layers compose without mapping.
inline constexpr std::int64_t kNoWatermark =
    std::numeric_limits<std::int64_t>::min();
/// Watermark sentinel: every upstream source is drained or idle past grace —
/// the receiver may flush everything it buffers. Numerically identical to
/// core::kPartitionDrained.
inline constexpr std::int64_t kWatermarkFlush =
    std::numeric_limits<std::int64_t>::max();

/// One batch of records moving between data-plane stages.
struct RecordBatch {
  std::vector<Record> records;
  /// Low-watermark travelling with the batch (min-combined over the source
  /// partitions by the exchange): every record at or below it that will ever
  /// be forwarded to this receiver has already been forwarded. kNoWatermark
  /// until a producer stamps it; kWatermarkFlush when no source gates.
  std::int64_t watermark_us = kNoWatermark;
  /// Stratum-occupancy stamp (repartitioning exchange only): how many
  /// distinct strata have been routed to THIS batch's channel so far, out of
  /// `total_strata` seen across all channels. The exchange thread counts
  /// both deterministically in record order, so receivers can split the
  /// per-slide sample budget by occupancy (budget · route/total) without a
  /// racy shared registry — 0/0 when the producer does not track occupancy.
  std::uint32_t route_strata = 0;
  std::uint32_t total_strata = 0;

  /// Sentinel for `channel`: the producer did not stamp channel identity.
  static constexpr std::uint32_t kNoChannel =
      std::numeric_limits<std::uint32_t>::max();

  /// Morsel identity for the work-stealing scheduler. `channel` is the
  /// index of the worker the exchange routed the batch to, and `seq` counts
  /// batches per channel from 0 with no gaps. A thief that absorbs a stolen
  /// morsel reports (channel, seq) done; the completion tracker only
  /// advances a channel's watermark clock over the contiguous prefix of
  /// completed sequence numbers, preserving the exchange's invariant that a
  /// stamped watermark covers only already-absorbed data even when morsels
  /// complete out of order.
  std::uint32_t channel = kNoChannel;
  std::uint64_t seq = 0;
  /// True for watermark-only heartbeats (no records). They recycle through
  /// a dedicated zero-reserve pool so idle channels never pin full-capacity
  /// record buffers.
  bool heartbeat = false;

  std::size_t size() const noexcept { return records.size(); }
  bool empty() const noexcept { return records.empty(); }

  /// Appends a run of `count` records. The scatter pass of the exchange's
  /// bulk routing kernel is one call per routed run instead of one copy
  /// decision per record.
  void append_run(const Record* run, std::size_t count) {
    if (count == 1) {
      // Length-1 runs are the common case on shuffled streams; push_back
      // skips the range-insert machinery for them.
      records.push_back(*run);
    } else {
      records.insert(records.end(), run, run + count);
    }
  }

  /// Clears data and metadata, keeping the records' capacity — the whole
  /// point of pooling.
  void reset() noexcept {
    records.clear();
    watermark_us = kNoWatermark;
    route_strata = 0;
    total_strata = 0;
    channel = kNoChannel;
    seq = 0;
    heartbeat = false;
  }
};

/// Calls `fn(slide, run, count)` for every run of consecutive records in
/// [records, records + count) mapping to the same slide index
/// (event_time_us / slide_us, truncating, so slide 0 holds all of
/// (−slide_us, slide_us)). This is the ONE run segmentation every batched
/// ingest hot path uses — the sequential driver and the sharded workers
/// apply their late-drop rules to identical runs, which the
/// parallel-equivalence guarantee depends on. Each run divides once, for
/// its first record; the rest of the run is found by comparing event times
/// with that slide's bounds. `slide_us` must be positive.
template <typename Fn>
void for_each_slide_run(const Record* records, std::size_t count,
                        std::int64_t slide_us, Fn&& fn) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t span = slide_us - 1;
  std::size_t i = 0;
  while (i < count) {
    const std::int64_t slide = records[i].event_time_us / slide_us;
    // |start| ≤ |event time|, so the product cannot overflow; the bounds
    // clamp where start ± span would pass the int64 range.
    const std::int64_t start = slide * slide_us;
    const std::int64_t lo =
        slide > 0 ? start : (start < kMin + span ? kMin : start - span);
    const std::int64_t hi =
        slide < 0 ? start : (start > kMax - span ? kMax : start + span);
    std::size_t end = i + 1;
    while (end < count && records[end].event_time_us >= lo &&
           records[end].event_time_us <= hi) {
      ++end;
    }
    fn(slide, records + i, end - i);
    i = end;
  }
}

/// Thread-safe free list of RecordBatches. acquire() pops a recycled batch
/// (or allocates one on a cold start); release() resets and returns it. The
/// pool must outlive every batch it handed out.
class BatchPool {
 public:
  /// `reserve_records` is the capacity hint newly allocated batches reserve,
  /// so the first fill of a fresh batch does not reallocate either.
  explicit BatchPool(std::size_t reserve_records = 1024)
      : reserve_records_(reserve_records) {}

  BatchPool(const BatchPool&) = delete;
  BatchPool& operator=(const BatchPool&) = delete;

  /// Returns an empty batch, recycled when possible.
  std::unique_ptr<RecordBatch> acquire() {
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        auto batch = std::move(free_.back());
        free_.pop_back();
        return batch;
      }
      ++allocated_;
    }
    auto batch = std::make_unique<RecordBatch>();
    batch->records.reserve(reserve_records_);
    return batch;
  }

  /// Resets `batch` and returns it to the free list. Null is ignored.
  void release(std::unique_ptr<RecordBatch> batch) {
    if (!batch) return;
    batch->reset();
    std::lock_guard lock(mutex_);
    free_.push_back(std::move(batch));
  }

  /// Batches allocated over the pool's lifetime (== the high-water mark of
  /// batches simultaneously outside the pool; steady state stops growing).
  std::size_t allocated() const {
    std::lock_guard lock(mutex_);
    return allocated_;
  }

  /// Batches currently parked in the free list.
  std::size_t pooled() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  const std::size_t reserve_records_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<RecordBatch>> free_;
  std::size_t allocated_ = 0;
};

}  // namespace streamapprox::engine
