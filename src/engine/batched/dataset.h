// RDD-like partitioned dataset for the batched engine.
//
// A Dataset<T> is an immutable collection split into partitions; every
// transformation is executed eagerly as one scheduler stage (task per
// partition, barrier at the end). The narrow one (map_partitions) touches
// each partition independently; the wide one (shuffle.h) exchanges data
// between partitions — the expensive path Spark STS takes. Compared to
// Spark, laziness and lineage-based fault tolerance are out of scope
// (docs/architecture.md, "Scope and substitutions"): what matters for the
// paper's measurements is the stage/barrier execution structure, which is
// faithful.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "engine/batched/scheduler.h"

namespace streamapprox::engine::batched {

/// Immutable partitioned dataset (the engine's RDD).
template <typename T>
class Dataset {
 public:
  Dataset() = default;

  /// Creates a dataset by slicing `items` into `partitions` contiguous
  /// parts (one stage; models the batch-generator step of Spark Streaming,
  /// Fig. 3 "Batched RDDs" — the data copy into the RDD is real and paid by
  /// every batched system except StreamApprox, which samples first).
  static Dataset from(std::span<const T> items, std::size_t partitions,
                      Scheduler& scheduler) {
    partitions = partitions == 0 ? 1 : partitions;
    Dataset dataset;
    dataset.partitions_.resize(partitions);
    const std::size_t n = items.size();
    const std::size_t chunk = (n + partitions - 1) / partitions;
    scheduler.run_stage(partitions, [&](std::size_t p) {
      const std::size_t begin = std::min(n, p * chunk);
      const std::size_t end = std::min(n, begin + chunk);
      dataset.partitions_[p].assign(items.begin() + begin,
                                    items.begin() + end);
    });
    return dataset;
  }

  /// Wraps already-partitioned data without copying.
  static Dataset from_partitions(std::vector<std::vector<T>> partitions) {
    Dataset dataset;
    dataset.partitions_ = std::move(partitions);
    if (dataset.partitions_.empty()) dataset.partitions_.emplace_back();
    return dataset;
  }

  /// Number of partitions.
  std::size_t partition_count() const noexcept { return partitions_.size(); }

  /// Total number of elements.
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& p : partitions_) n += p.size();
    return n;
  }

  /// Read access to the raw partitions.
  const std::vector<std::vector<T>>& partitions() const noexcept {
    return partitions_;
  }

  /// Runs fn over each whole partition, producing one U per partition
  /// (the workhorse for per-partition sampling and aggregation).
  template <typename U, typename Fn>
  std::vector<U> map_partitions(Fn fn, Scheduler& scheduler) const {
    std::vector<U> results(partitions_.size());
    scheduler.run_stage(partitions_.size(), [&](std::size_t p) {
      results[p] = fn(p, partitions_[p]);
    });
    return results;
  }

 private:
  std::vector<std::vector<T>> partitions_;
};

}  // namespace streamapprox::engine::batched
