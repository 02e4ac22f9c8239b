// Pipelined stream runtime (the Flink workflow of Fig. 3): records flow one
// at a time from a source task through parallel aggregation tasks into a
// window collector, connected by lock-free SPSC channels with backpressure.
// There is no batch formation and no stage barrier — an item is forwarded
// "as soon as the item is ready to be processed" (§2.2), which is where the
// Flink-based StreamApprox's throughput edge over the Spark-based one comes
// from in the paper's evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/batched/micro_batch.h"  // StreamRunResult
#include "engine/record.h"
#include "engine/window.h"

namespace streamapprox::engine::pipelined {

/// Per-worker streaming aggregation operator: consumes records one at a
/// time and, at every window-slide boundary, surrenders the slide's sample
/// cells. Implementations: OASRS sampling operator (the operator the paper
/// adds to Flink, §4.2.2) and the exact pass-through used by the native
/// baseline — see aggregators.h.
class SlideAggregator {
 public:
  virtual ~SlideAggregator() = default;

  /// Consumes one record (record-at-a-time processing).
  virtual void offer(const Record& record) = 0;

  /// Ends the current slide: returns its cells and resets for the next one.
  virtual std::vector<estimation::StratumSummary> take_slide() = 0;
};

/// Creates one aggregator per parallel worker (worker index given).
using AggregatorFactory =
    std::function<std::unique_ptr<SlideAggregator>(std::size_t)>;

/// Dataflow configuration.
struct PipelineConfig {
  /// Parallel aggregation tasks (Flink operator parallelism).
  std::size_t parallelism = 4;
  /// Capacity of each inter-task channel (records); bounded => natural
  /// backpressure, as in Flink's credit-based flow control.
  std::size_t channel_capacity = 8192;
  /// Sliding-window geometry.
  WindowConfig window{};
};

/// Runs the pipelined dataflow over `records` (sorted by event time):
///   source -> p parallel aggregators -> window collector
/// The collector joins every slide's cells (empty slides included) into a
/// SlidingWindowAssembler. Returns completed windows plus wall-clock
/// throughput, measured across the concurrently executing pipeline. Throws
/// std::invalid_argument for an invalid window geometry, before any thread
/// starts.
batched::StreamRunResult run_pipeline(const std::vector<Record>& records,
                                      const PipelineConfig& config,
                                      const AggregatorFactory& factory);

}  // namespace streamapprox::engine::pipelined
