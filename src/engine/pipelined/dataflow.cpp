#include "engine/pipelined/dataflow.h"

#include <atomic>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/queue.h"

namespace streamapprox::engine::pipelined {
namespace {

/// Message from an aggregation task to the window collector: one completed
/// slide's cells. Workers emit every slide index in order (empty cells for
/// quiet slides), so the collector can assemble windows deterministically.
struct SlideMsg {
  std::size_t slide_index = 0;
  std::vector<estimation::StratumSummary> cells;
};

void spin_push(streamapprox::SpscRing<Record>& ring, const Record& record) {
  while (!ring.try_push(record)) std::this_thread::yield();
}

void spin_push(streamapprox::SpscRing<SlideMsg>& ring, SlideMsg msg) {
  // try_push_keep: a failed push on a full ring must not consume the
  // message (try_push's by-value parameter would destroy the slide's cells
  // on the first failed attempt and retry with an empty message).
  while (!ring.try_push_keep(msg)) std::this_thread::yield();
}

}  // namespace

batched::StreamRunResult run_pipeline(const std::vector<Record>& records,
                                      const PipelineConfig& config,
                                      const AggregatorFactory& factory) {
  // Built before any thread starts, so an invalid window geometry throws
  // here rather than on the collector thread. Collector-thread state
  // afterwards, joined before the result is read.
  SlidingWindowAssembler assembler(config.window);
  const std::size_t parallelism =
      config.parallelism == 0 ? 1 : config.parallelism;
  const std::int64_t slide_us = config.window.slide_us;

  // The last slide every worker must flush up to, so that all workers emit
  // the same set of slide indices regardless of which records they saw.
  const std::size_t final_slide =
      records.empty()
          ? 0
          : static_cast<std::size_t>(records.back().event_time_us / slide_us);

  std::vector<std::unique_ptr<streamapprox::SpscRing<Record>>> in_rings;
  std::vector<std::unique_ptr<streamapprox::SpscRing<SlideMsg>>> out_rings;
  in_rings.reserve(parallelism);
  out_rings.reserve(parallelism);
  for (std::size_t w = 0; w < parallelism; ++w) {
    in_rings.push_back(std::make_unique<streamapprox::SpscRing<Record>>(
        config.channel_capacity));
    out_rings.push_back(
        std::make_unique<streamapprox::SpscRing<SlideMsg>>(256));
  }

  batched::StreamRunResult result;
  streamapprox::Stopwatch watch;

  // --- Aggregation tasks: record-at-a-time, flush cells on slide change.
  std::vector<std::thread> workers;
  workers.reserve(parallelism);
  for (std::size_t w = 0; w < parallelism; ++w) {
    workers.emplace_back([&, w] {
      auto aggregator = factory(w);
      auto& in = *in_rings[w];
      auto& out = *out_rings[w];
      std::size_t current_slide = 0;
      for (;;) {
        auto record = in.try_pop();
        if (!record) {
          if (in.drained()) break;
          std::this_thread::yield();
          continue;
        }
        const auto slide = static_cast<std::size_t>(
            record->event_time_us / slide_us);
        while (current_slide < slide) {
          spin_push(out, {current_slide, aggregator->take_slide()});
          ++current_slide;
        }
        aggregator->offer(*record);
      }
      while (current_slide <= final_slide) {
        spin_push(out, {current_slide, aggregator->take_slide()});
        ++current_slide;
      }
      out.close();
    });
  }

  // --- Window collector: joins per-worker slides in order and assembles
  // windows from them. Runs concurrently with the workers (true
  // pipelining).
  std::thread collector([&] {
    for (std::size_t slide = 0; slide <= final_slide; ++slide) {
      std::vector<estimation::StratumSummary> cells;
      for (std::size_t w = 0; w < parallelism; ++w) {
        auto& out = *out_rings[w];
        std::optional<SlideMsg> msg;
        while (!(msg = out.try_pop())) {
          if (out.drained()) break;
          std::this_thread::yield();
        }
        if (!msg) continue;  // worker ended early (no records at all)
        cells.insert(cells.end(),
                     std::make_move_iterator(msg->cells.begin()),
                     std::make_move_iterator(msg->cells.end()));
      }
      if (auto window = assembler.push_slide(std::move(cells))) {
        result.windows.push_back(std::move(*window));
      }
    }
  });

  // --- Source task: round-robin record distribution with backpressure.
  std::size_t next_worker = 0;
  for (const Record& record : records) {
    spin_push(*in_rings[next_worker], record);
    next_worker = (next_worker + 1) % parallelism;
  }
  for (auto& ring : in_rings) ring->close();

  for (auto& worker : workers) worker.join();
  collector.join();

  result.records_processed = records.size();
  result.wall_seconds = watch.seconds();
  return result;
}

}  // namespace streamapprox::engine::pipelined
