#include "engine/batched/micro_batch.h"

#include <stdexcept>

#include "common/clock.h"

namespace streamapprox::engine::batched {

StreamRunResult run_micro_batches(const std::vector<Record>& records,
                                  const MicroBatchConfig& config,
                                  const BatchJob& job) {
  SlidingWindowAssembler assembler(config.window);
  if (config.batch_interval_us <= 0 ||
      config.window.slide_us % config.batch_interval_us != 0) {
    throw std::invalid_argument(
        "run_micro_batches: window slide must be a positive multiple of the "
        "batch interval");
  }
  const auto batches_per_slide = static_cast<std::size_t>(
      config.window.slide_us / config.batch_interval_us);

  StreamRunResult result;
  std::vector<estimation::StratumSummary> slide_cells;
  const auto close_slide = [&] {
    if (auto window = assembler.push_slide(std::move(slide_cells))) {
      result.windows.push_back(std::move(*window));
    }
    slide_cells.clear();
  };

  streamapprox::Stopwatch watch;
  const auto ranges = split_by_interval(records, config.batch_interval_us);
  for (std::size_t b = 0; b < ranges.size(); ++b) {
    const auto [begin, end] = ranges[b];
    const std::span<const Record> batch(records.data() + begin, end - begin);
    auto cells = job(b, batch);
    result.records_processed += batch.size();
    slide_cells.insert(slide_cells.end(),
                       std::make_move_iterator(cells.begin()),
                       std::make_move_iterator(cells.end()));
    if ((b + 1) % batches_per_slide == 0) close_slide();
  }
  // Flush a trailing partial slide so short streams still produce output.
  if (!slide_cells.empty()) close_slide();
  result.wall_seconds = watch.seconds();
  return result;
}

}  // namespace streamapprox::engine::batched
