// Online Adaptive Stratified Reservoir Sampling — the paper's primary
// contribution (Algorithm 3). One Algorithm R reservoir (Algorithm 1) per
// stratum, strata discovered on the fly, per-interval counters C_i, weights
// W_i per Eq. 1, no knowledge of sub-stream statistics required and no
// synchronisation between workers.
//
// One capacity rule: every stratum seen shares the interval's budget
// equally (capacity_for), on discovery, on a budget change and on merge. An
// equal share is what keeps a rare sub-stream's sample from starving, where
// Spark STS's proportional sampleByKey gives it only its fraction. A
// sampler lives one interval: take() hands the sample on and forgets the
// strata, so the next interval discovers them again under the same rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sampling/reservoir.h"
#include "sampling/sample.h"

namespace streamapprox::sampling {

/// Configuration for an OasrsSampler.
struct OasrsConfig {
  /// Total per-interval sample budget, split equally across the strata
  /// seen. When 0, `per_stratum_capacity` is used directly for every
  /// stratum.
  std::size_t total_budget = 0;
  /// Fixed reservoir capacity per stratum (used when total_budget == 0, the
  /// paper's "fixed-size reservoir per stratum" presentation in Fig. 2).
  std::size_t per_stratum_capacity = 64;
  /// RNG seed; each stratum forks its own generator deterministically.
  std::uint64_t seed = 0x0a5125ULL;
};

/// Sampler counters, accumulated across offer_run calls (and carried along
/// by merge): `bulk_runs` same-stratum runs offered, `accepted` records
/// written into a reservoir, `skipped` records offered and not written.
struct OasrsKernelStats {
  std::uint64_t bulk_runs = 0;
  std::uint64_t accepted = 0;
  std::uint64_t skipped = 0;
};

/// OASRS sampler over items of type T.
///
/// `KeyFn` maps an item to its StratumId (the sub-stream / source). A new
/// stratum encountered mid-interval immediately receives its own reservoir —
/// OASRS "does not overlook any sub-streams regardless of their popularity"
/// (§3.2). Call take() at the end of every time interval (batch or window
/// slide) to obtain the (sample, W) pair of Algorithm 3; the sampler then
/// starts the next interval with no strata.
template <typename T, typename KeyFn = std::function<StratumId(const T&)>>
class OasrsSampler {
 public:
  /// Creates a sampler. `key` extracts an item's stratum.
  OasrsSampler(OasrsConfig config, KeyFn key)
      : config_(config), key_(std::move(key)), rng_(config.seed) {}

  /// Offers one arriving item (paper Algorithm 3 inner loop): updates the
  /// stratum counter C_i and the stratum reservoir.
  void offer(const T& item) { reservoir_for(key_(item)).offer(item); }

  /// Offers a contiguous same-stratum run of items whose stratum the caller
  /// already knows, fed by offer_batch: one reservoir lookup per run, then
  /// the reservoir's acceptance loop over the run. Returns the number of
  /// items written to the sample.
  std::size_t offer_run(const StratumId id, const T* items, std::size_t n) {
    if (n == 0) return 0;
    const std::size_t accepted = reservoir_for(id).offer_run(items, n);
    ++stats_.bulk_runs;
    stats_.accepted += accepted;
    stats_.skipped += n - accepted;
    return accepted;
  }

  /// Offers a contiguous run of mixed-stratum items, segmenting it into
  /// maximal same-stratum runs (one key_ call per item: each stratum field
  /// is read once) and feeding each to offer_run — the one path records
  /// take into a sampler on every live execution path.
  void offer_batch(const T* items, std::size_t count) {
    std::size_t i = 0;
    while (i < count) {
      const StratumId id = key_(items[i]);
      std::size_t end = i + 1;
      while (end < count && key_(items[end]) == id) ++end;
      offer_run(id, items + i, end - i);
      i = end;
    }
  }

  /// Convenience overload over a whole vector.
  void offer_batch(const std::vector<T>& items) {
    offer_batch(items.data(), items.size());
  }

  /// Ends the interval: returns every stratum's (items, C_i, W_i) in first-
  /// seen order, for deterministic output, and forgets the strata.
  StratifiedSample<T> take() {
    StratifiedSample<T> result;
    result.strata.reserve(order_.size());
    for (const StratumId id : order_) {
      Reservoir& reservoir = reservoirs_.at(id);
      StratumSample<T> s;
      s.stratum = id;
      s.seen = reservoir.seen();
      s.weight = reservoir.weight();
      s.items = reservoir.take_items();
      result.strata.push_back(std::move(s));
    }
    reservoirs_.clear();
    order_.clear();
    max_capacity_ = 0;
    return result;
  }

  /// Adjusts the total budget mid-interval (the occupancy share of a
  /// sharded slide, core/pipeline_driver.h). Reservoirs shrink at once if
  /// their share fell, and keep their capacity if it grew — growing a live
  /// reservoir would bias it toward recent items; strata discovered later
  /// get the new share.
  void set_total_budget(std::size_t budget) {
    config_.total_budget = budget;
    if (budget == 0) return;
    const std::size_t capacity = capacity_for(order_.size());
    for (auto& [id, reservoir] : reservoirs_) {
      reservoir.shrink_capacity(capacity);
    }
    if (!reservoirs_.empty()) max_capacity_ = capacity;
  }

  /// Number of strata discovered in the current interval.
  std::size_t stratum_count() const noexcept { return reservoirs_.size(); }

  /// Run counters accumulated so far (survive take(); a window's
  /// worth is read by the merger at slide close).
  const OasrsKernelStats& kernel_stats() const noexcept { return stats_; }

  /// Merges the per-stratum reservoirs of `other` into this sampler —
  /// the distributed execution path (§3.2): each of w workers runs a local
  /// OASRS over its share of the stream; merging concatenates the statistics
  /// without any synchronisation during sampling itself. Consumes the other
  /// sampler's items (it is owned by the caller on the slide-close path).
  void merge(OasrsSampler& other) {
    stats_.bulk_runs += other.stats_.bulk_runs;
    stats_.accepted += other.stats_.accepted;
    stats_.skipped += other.stats_.skipped;
    for (StratumId id : other.order_) {
      auto& theirs = other.reservoirs_.at(id);
      auto it = reservoirs_.find(id);
      if (it == reservoirs_.end()) {
        const std::size_t capacity = capacity_for(order_.size());
        it = reservoirs_.emplace(id, make_reservoir(capacity)).first;
        order_.push_back(id);
        max_capacity_ = std::max(max_capacity_, capacity);
      }
      // Move the other side's items out and run this side's binomial slot
      // allocation.
      it->second.merge_from(theirs.take_items(), theirs.seen());
    }
  }

 private:
  using Reservoir = ReservoirSampler<T>;

  /// Builds a stratum reservoir with its own forked seed.
  Reservoir make_reservoir(std::size_t capacity) {
    return Reservoir(capacity, rng_.fork().next());
  }

  /// Looks up (or discovers) the reservoir of stratum `id`.
  Reservoir& reservoir_for(const StratumId id) {
    auto it = reservoirs_.find(id);
    if (it == reservoirs_.end()) {
      // New stratum discovered mid-interval: the shared budget is re-split
      // over the larger stratum set, shrinking existing reservoirs (a
      // uniform subsample stays uniform) so the total never exceeds the
      // budget. The pass is skipped when no existing reservoir exceeds the
      // new share (every shrink_capacity call would be a no-op), tracked via
      // the high-water capacity — so S-stratum discovery costs O(S)
      // reservoir visits overall once the integer share budget/S stops
      // changing, instead of O(S²) always.
      order_.push_back(id);
      const std::size_t capacity = capacity_for(order_.size());
      if (config_.total_budget > 0 && capacity < max_capacity_) {
        for (auto& [existing_id, reservoir] : reservoirs_) {
          reservoir.shrink_capacity(capacity);
        }
      }
      // Whether the pass ran (everything shrunk to `capacity`) or was
      // skipped (everything already at or below it), `capacity` is now the
      // high water. Assigning — not max-combining — is what lets it tighten
      // as shares shrink; a monotone high water would stop the skip firing.
      max_capacity_ = capacity;
      it = reservoirs_.emplace(id, make_reservoir(capacity)).first;
    }
    return it->second;
  }

  /// Per-stratum capacity when `strata` strata share the budget.
  std::size_t capacity_for(std::size_t strata) const {
    if (config_.total_budget == 0) return config_.per_stratum_capacity;
    if (strata == 0) strata = 1;
    return std::max<std::size_t>(config_.total_budget / strata,
                                 config_.total_budget > 0 ? 1 : 0);
  }

  OasrsConfig config_;
  KeyFn key_;
  streamapprox::Rng rng_;
  std::unordered_map<StratumId, Reservoir> reservoirs_;
  std::vector<StratumId> order_;
  /// High-water reservoir capacity: when a new stratum's share is not below
  /// it, no reservoir can need shrinking and the re-split pass is skipped.
  std::size_t max_capacity_ = 0;
  OasrsKernelStats stats_;
};

/// Deduces a convenient OASRS type for items that expose `.stratum`.
template <typename T>
auto make_oasrs(OasrsConfig config) {
  auto key = [](const T& item) { return static_cast<StratumId>(item.stratum); };
  return OasrsSampler<T, decltype(key)>(config, key);
}

}  // namespace streamapprox::sampling
