// The wide (shuffle) operation of the batched engine: groupBy(stratum).
//
// This is the heart of the Spark-STS baseline's cost (paper §4.1 / §5.2:
// "Spark-based stratified sampling scales poorly because of its
// synchronisation among Spark workers"). The shuffle is real: a map-side
// stage hash-partitions every record into per-reducer buckets, a barrier
// synchronises all workers, and a reduce-side stage concatenates and groups
// each reducer's buckets. Data volume moved equals the full batch.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "engine/batched/dataset.h"
#include "sampling/sample.h"

namespace streamapprox::engine::batched {

/// Result of a grouped shuffle: for each reducer partition, the groups
/// (stratum -> items) routed to it.
template <typename T>
using GroupedPartitions =
    std::vector<std::unordered_map<sampling::StratumId, std::vector<T>>>;

/// groupBy over a dataset: returns per-reducer grouped data. KeyFn maps an
/// element to its StratumId; `reducers` defaults to the input partition
/// count. Two stages with a full barrier in between.
template <typename T, typename KeyFn>
GroupedPartitions<T> shuffle_group_by(const Dataset<T>& input, KeyFn key,
                                      Scheduler& scheduler,
                                      std::size_t reducers = 0) {
  const std::size_t maps = input.partition_count();
  if (reducers == 0) reducers = maps;

  // Map side: bucket every element by hash(key) % reducers.
  std::vector<std::vector<std::vector<T>>> buckets(
      maps, std::vector<std::vector<T>>(reducers));
  scheduler.run_stage(maps, [&](std::size_t p) {
    for (const T& item : input.partitions()[p]) {
      const auto k = static_cast<std::size_t>(key(item));
      buckets[p][k % reducers].push_back(item);
    }
  });
  // <- stage barrier: no reducer starts before every mapper finished.

  // Reduce side: concatenate this reducer's buckets from every mapper and
  // group by exact key.
  GroupedPartitions<T> grouped(reducers);
  scheduler.run_stage(reducers, [&](std::size_t r) {
    auto& groups = grouped[r];
    for (std::size_t p = 0; p < maps; ++p) {
      for (T& item : buckets[p][r]) {
        groups[key(item)].push_back(std::move(item));
      }
    }
  });
  return grouped;
}

}  // namespace streamapprox::engine::batched
