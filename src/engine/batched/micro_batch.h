// Micro-batch stream runtime (the Spark-Streaming workflow of Fig. 3):
// the event-time-sorted input stream is cut into batches of one batch
// interval each; a user-supplied job turns every batch into sample cells;
// cells are assembled into sliding windows. Wall-clock time across the whole
// loop gives the system's throughput — the paper's measurement methodology
// (§6.1) of feeding input until saturation and counting processed items.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "engine/record.h"
#include "engine/window.h"

namespace streamapprox::engine::batched {

/// A micro-batch job: receives the batch index and the batch's records,
/// returns the per-stratum sample cells the batch contributes to its window.
/// The job is where each evaluated system differs (native / SRS / STS /
/// StreamApprox); see core/systems.h.
using BatchJob = std::function<std::vector<estimation::StratumSummary>(
    std::size_t, std::span<const Record>)>;

/// Runner configuration.
struct MicroBatchConfig {
  /// Batch interval (paper §5.3 sweeps 250/500/1000 ms). The window slide
  /// must be a positive multiple of this.
  std::int64_t batch_interval_us = 500'000;
  /// Sliding-window geometry.
  WindowConfig window{};
};

/// Outcome of one streaming run (shared with the pipelined runtime).
struct StreamRunResult {
  std::vector<WindowResult> windows;   ///< completed windows, in order
  std::uint64_t records_processed = 0; ///< total input records consumed
  double wall_seconds = 0.0;           ///< wall-clock processing time
  /// Records consumed per wall-clock second.
  double throughput() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(records_processed) / wall_seconds
               : 0.0;
  }
};

/// Executes `job` over every micro-batch of `records` (which must be sorted
/// by event time) and assembles sliding windows from the produced cells with
/// a SlidingWindowAssembler; a trailing partial slide is flushed as the last
/// slide. Throws std::invalid_argument for an invalid window geometry or if
/// the window slide is not a multiple of the batch interval.
StreamRunResult run_micro_batches(const std::vector<Record>& records,
                                  const MicroBatchConfig& config,
                                  const BatchJob& job);

}  // namespace streamapprox::engine::batched
