// Reservoir sampling — paper Algorithm 1 (Vitter's Algorithm R), plus the
// distributed two-reservoir merge used by OASRS's synchronisation-free
// distributed execution (paper §3.2, "Distributed execution"). OasrsSampler
// holds one ReservoirSampler per stratum.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace streamapprox::sampling {

/// Uniform fixed-capacity reservoir over an unbounded stream (Algorithm R,
/// exactly the paper's Algorithm 1): the first N items fill the reservoir;
/// afterwards item i is accepted with probability N/i and replaces a uniform
/// random slot. Every stream prefix's items end up in the reservoir with
/// equal probability N/i. One RNG draw per arriving item once full.
///
/// The sample vector grows as items arrive rather than reserving the
/// capacity up front: a stratum's capacity can be the whole slide budget
/// (up to 2^26 under the feedback cap) while it holds a handful of records.
template <typename T>
class ReservoirSampler {
 public:
  /// Creates a reservoir holding at most `capacity` items, drawing randomness
  /// from `seed`.
  explicit ReservoirSampler(std::size_t capacity, std::uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {}

  /// Offers one stream item to the sampler.
  void offer(const T& item) { offer_run(&item, 1); }

  /// Offers a contiguous run of items, in stream order, and returns the
  /// number written into the reservoir. The run draws exactly what offering
  /// its items one at a time would draw, so the result does not depend on
  /// how a stream is cut into runs.
  std::size_t offer_run(const T* run, std::size_t n) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ++seen_;
      if (items_.size() < capacity_) {
        items_.push_back(run[i]);
        ++accepted;
        continue;
      }
      if (capacity_ == 0) continue;
      // Accept with probability N/i, then displace a uniform random slot.
      const std::uint64_t j = rng_.uniform_int(seen_);
      if (j < capacity_) {
        items_[j] = run[i];
        ++accepted;
      }
    }
    return accepted;
  }

  /// Number of items offered so far (the paper's per-interval counter C_i).
  std::uint64_t seen() const noexcept { return seen_; }

  /// The current sample (Y_i = items().size() <= capacity).
  const std::vector<T>& items() const noexcept { return items_; }

  /// Reservoir capacity N_i.
  std::size_t capacity() const noexcept { return capacity_; }

  /// Expansion weight per paper Eq. 1: C_i/N_i when the stratum over-filled,
  /// else 1 (every received item is in the sample and represents itself).
  double weight() const noexcept {
    if (items_.empty()) return 1.0;
    return seen_ > items_.size()
               ? static_cast<double>(seen_) /
                     static_cast<double>(items_.size())
               : 1.0;
  }

  /// Shrinks the capacity mid-stream, discarding uniformly random items if
  /// the sample currently exceeds it. Statistically sound: a uniform random
  /// subsample of a uniform random sample is itself uniform, and Algorithm R
  /// keeps uniformity when continuing with the smaller N. Used by OASRS when
  /// a newly discovered stratum dilutes the shared budget (Algorithm 3's
  /// getSampleSize over a growing stratum set). Growing mid-stream is NOT
  /// offered — it would bias toward recent items.
  void shrink_capacity(std::size_t new_capacity) {
    if (new_capacity >= capacity_) return;
    capacity_ = new_capacity;
    while (items_.size() > capacity_) {
      const std::uint64_t idx = rng_.uniform_int(items_.size());
      items_[idx] = std::move(items_.back());
      items_.pop_back();
    }
  }

  /// Moves the sample out (leaving the reservoir empty but counters intact).
  std::vector<T> take_items() noexcept { return std::move(items_); }

  /// Merges another reservoir's (sample, stream count) into this one without
  /// re-scanning either stream: the result approximates a uniform sample of
  /// the union population of size min(capacity, combined sample size). Each
  /// output slot chooses its source with probability proportional to the
  /// source's STREAM count (binomial allocation of slots — the standard
  /// distributed reservoir merge, unbiased in expectation), then takes a
  /// uniformly random not-yet-taken item from that source. Public so
  /// OasrsSampler can merge moved-out samples.
  void merge_from(std::vector<T> theirs, std::uint64_t their_seen) {
    if (their_seen == 0) return;
    if (seen_ == 0) {
      items_ = std::move(theirs);
      seen_ = their_seen;
      return;
    }
    std::vector<T> mine = std::move(items_);
    const double share_mine =
        static_cast<double>(seen_) /
        static_cast<double>(seen_ + their_seen);
    std::vector<T> merged;
    const std::size_t target =
        std::min(capacity_, mine.size() + theirs.size());
    merged.reserve(target);
    while (merged.size() < target && (!mine.empty() || !theirs.empty())) {
      const bool pick_mine =
          !mine.empty() && (theirs.empty() || rng_.uniform() < share_mine);
      auto& source = pick_mine ? mine : theirs;
      const std::uint64_t idx = rng_.uniform_int(source.size());
      merged.push_back(std::move(source[idx]));
      source[idx] = std::move(source.back());
      source.pop_back();
    }
    items_ = std::move(merged);
    seen_ += their_seen;
  }

 private:
  std::size_t capacity_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  streamapprox::Rng rng_;
};

}  // namespace streamapprox::sampling
