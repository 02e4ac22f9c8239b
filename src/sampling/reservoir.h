// Reservoir sampling — paper Algorithm 1 (Vitter's Algorithm R) and the
// skip-ahead production kernel (Li's Algorithm L extended with a bulk-offer
// path), plus the distributed two-reservoir merge used by OASRS's
// synchronisation-free distributed execution (paper §3.2, "Distributed
// execution"). OasrsSampler samples with FastReservoirSampler; the two
// classes expose the same surface so tests and benches can hold the
// Algorithm R reference side by side with it.
#pragma once

#include <cassert>
#include <cstdint>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace streamapprox::sampling {

/// Uniform fixed-capacity reservoir over an unbounded stream (Algorithm R,
/// exactly the paper's Algorithm 1): the first N items fill the reservoir;
/// afterwards item i is accepted with probability N/i and replaces a uniform
/// random slot. Every stream prefix's items end up in the reservoir with
/// equal probability N/i. One RNG draw per arriving item — the bit-exact
/// reference path FastReservoirSampler is measured (and tested) against.
template <typename T>
class ReservoirSampler {
 public:
  /// Creates a reservoir holding at most `capacity` items, drawing randomness
  /// from `seed`.
  explicit ReservoirSampler(std::size_t capacity, std::uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    items_.reserve(capacity_);
  }

  /// Offers one stream item to the sampler.
  void offer(const T& item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    if (capacity_ == 0) return;
    // Accept with probability N/i, then displace a uniform random slot.
    const std::uint64_t j = rng_.uniform_int(seen_);
    if (j < capacity_) items_[j] = item;
  }

  /// Offers a contiguous run of items. Bit-exact with calling offer() on
  /// each item in order (Algorithm R draws per item either way); returns the
  /// number of items written into the reservoir so callers can keep
  /// accept/skip counters without re-deriving them.
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

  /// Clears sample and counter for the next time interval. The capacity may
  /// be changed at the same time (adaptive feedback re-tunes it, §4.2).
  void reset(std::size_t new_capacity) {
    capacity_ = new_capacity;
    items_.clear();
    items_.reserve(capacity_);
    seen_ = 0;
  }

  /// Clears sample and counter, keeping the capacity.
  void reset() { reset(capacity_); }

  /// Shrinks the capacity mid-stream, discarding uniformly random items if
  /// the sample currently exceeds it. Statistically sound: a uniform random
  /// subsample of a uniform random sample is itself uniform, and Algorithm R
  /// keeps uniformity when continuing with the smaller N. Used by OASRS when
  /// a newly discovered stratum dilutes the shared budget (Algorithm 3's
  /// getSampleSize over a growing stratum set). Growing mid-stream is NOT
  /// offered — it would bias toward recent items; growth applies at reset.
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

  /// Merge preserving `other` (copies its sample).
  void merge(const ReservoirSampler& other) {
    if (other.seen_ == 0) return;
    merge_from(other.items_, other.seen_);
  }

  /// Consuming merge: when the caller owns `other` (the sharded merger's
  /// slide-close path does), its sample moves instead of copying. Draws the
  /// same randomness as the copying overload.
  void merge(ReservoirSampler&& other) {
    if (other.seen_ == 0) return;
    merge_from(std::move(other.items_), other.seen_);
  }

 private:
  std::size_t capacity_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  streamapprox::Rng rng_;
};

/// Skip-ahead reservoir (Li's Algorithm L): statistically identical output
/// distribution to Algorithm R, but instead of one RNG draw per item it
/// maintains the acceptance-probability state w and jumps a geometric number
/// of guaranteed-rejected positions between acceptances — O(1) amortised per
/// item with a tiny constant, and O(accepted) rather than O(arrived) via
/// offer_run, which never even reads the skipped records of a run.
///
/// Full ReservoirSampler parity (reset / shrink_capacity / take_items /
/// merge) with one extra invariant: any operation that invalidates the skip
/// state (shrink, merge, take) clears `primed_`, and the next saturated
/// offer re-primes it EXACTLY — the acceptance probability W after s items
/// at capacity k is Beta(k, s-k+1)-distributed (1 minus the k-th largest of
/// s uniforms), which prime() samples directly. Beta(k, 1) is U^(1/k), so
/// the fill-time prime is the same formula Algorithm L uses.
template <typename T>
class FastReservoirSampler {
 public:
  /// See ReservoirSampler.
  explicit FastReservoirSampler(std::size_t capacity, std::uint64_t seed = 1)
      : capacity_(capacity),
        inv_capacity_(capacity > 0 ? 1.0 / static_cast<double>(capacity)
                                   : 0.0),
        rng_(seed) {
    items_.reserve(capacity_);
  }

  /// Offers one stream item. Bit-exact with offer_run over the same items:
  /// both walk the identical (prime, accept-slot, advance) draw sequence.
  void offer(const T& item) {
    if (items_.size() < capacity_) {
      ++seen_;
      items_.push_back(item);
      if (items_.size() == capacity_) prime();
      return;
    }
    if (capacity_ == 0) {
      ++seen_;
      return;
    }
    if (!primed_) prime();
    ++seen_;
    if (seen_ == next_accept_) {
      items_[rng_.uniform_int(capacity_)] = item;
      advance();
    }
  }

  /// The bulk-offer kernel: offers a contiguous run of n items occupying
  /// stream positions [seen+1, seen+n]. A saturated reservoir walks its
  /// geometric acceptance positions inside that range and touches ONLY those
  /// records — the skipped ones are never read — then advances `seen_` by n
  /// in one step, so C_i / W_i bookkeeping is exactly what n offer() calls
  /// would have produced. Returns the number of items written.
  std::size_t offer_run(const T* run, std::size_t n) {
    std::size_t accepted = 0;
    std::size_t i = 0;
    while (i < n && items_.size() < capacity_) {
      ++seen_;
      items_.push_back(run[i]);
      if (items_.size() == capacity_) prime();
      ++i;
      ++accepted;
    }
    if (i == n) return accepted;
    if (capacity_ == 0) {
      seen_ += static_cast<std::uint64_t>(n - i);
      return accepted;
    }
    if (!primed_) prime();
    const std::uint64_t base = seen_;
    const std::uint64_t end = base + static_cast<std::uint64_t>(n - i);
    // The acceptance loop keeps the skip state in locals: writes into
    // items_ may alias the members under TBAA, so without the hoist every
    // iteration reloads and spills w_/next_accept_.
    std::uint64_t next = next_accept_;
    double w = w_;
    T* const slots = items_.data();
    while (next <= end) {
      slots[rng_.uniform_int(capacity_)] =
          run[i + static_cast<std::size_t>(next - base - 1)];
      ++accepted;
      advance_local(rng_, inv_capacity_, w, next);
    }
    next_accept_ = next;
    w_ = w;
    seen_ = end;
    return accepted;
  }

  /// Items offered so far.
  std::uint64_t seen() const noexcept { return seen_; }
  /// Current sample.
  const std::vector<T>& items() const noexcept { return items_; }
  /// Capacity N.
  std::size_t capacity() const noexcept { return capacity_; }
  /// Weight per Eq. 1.
  double weight() const noexcept {
    if (items_.empty()) return 1.0;
    return seen_ > items_.size()
               ? static_cast<double>(seen_) /
                     static_cast<double>(items_.size())
               : 1.0;
  }

  /// Clears sample, counter and skip state for the next interval; the
  /// capacity may change at the same time (adaptive feedback, §4.2).
  void reset(std::size_t new_capacity) {
    capacity_ = new_capacity;
    inv_capacity_ = capacity_ > 0 ? 1.0 / static_cast<double>(capacity_) : 0.0;
    items_.clear();
    items_.reserve(capacity_);
    seen_ = 0;
    w_ = 1.0;
    next_accept_ = 0;
    primed_ = false;
  }

  /// Clears state, keeping the capacity.
  void reset() { reset(capacity_); }

  /// Shrinks the capacity mid-stream, discarding uniformly random items
  /// (see ReservoirSampler::shrink_capacity for why this stays uniform).
  /// The skip state was tuned to the old capacity, so it is invalidated and
  /// re-primed from the Beta(k, s-k+1) law at the next saturated offer.
  void shrink_capacity(std::size_t new_capacity) {
    if (new_capacity >= capacity_) return;
    capacity_ = new_capacity;
    inv_capacity_ = capacity_ > 0 ? 1.0 / static_cast<double>(capacity_) : 0.0;
    while (items_.size() > capacity_) {
      const std::uint64_t idx = rng_.uniform_int(items_.size());
      items_[idx] = std::move(items_.back());
      items_.pop_back();
    }
    primed_ = false;
  }

  /// Moves the sample out (counters intact). The skip state dies with the
  /// sample; refilling re-primes.
  std::vector<T> take_items() noexcept {
    primed_ = false;
    return std::move(items_);
  }

  /// Distributed merge — same binomial slot allocation as
  /// ReservoirSampler::merge_from, plus skip-state invalidation.
  void merge_from(std::vector<T> theirs, std::uint64_t their_seen) {
    if (their_seen == 0) return;
    primed_ = false;
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

  /// Merge preserving `other`.
  void merge(const FastReservoirSampler& other) {
    if (other.seen_ == 0) return;
    merge_from(other.items_, other.seen_);
  }

  /// Consuming merge (the slide-close path).
  void merge(FastReservoirSampler&& other) {
    if (other.seen_ == 0) return;
    merge_from(std::move(other.items_), other.seen_);
  }

 private:
  static double draw_positive(streamapprox::Rng& rng) {
    double u = 0.0;
    do {
      u = rng.uniform();
    } while (u <= 0.0);
    return u;
  }

  /// next += Geometric(log U / log(1-w)) + 1, guarding the double extremes:
  /// w rounded up to 1 accepts the very next item; w rounded down to 0 (or
  /// an astronomically long skip) parks the reservoir — correct to within
  /// probabilities far below double resolution. Static over caller-held
  /// state so the bulk kernel can keep (w, next) in registers.
  static void schedule_local(streamapprox::Rng& rng, double w,
                             std::uint64_t& next) {
    if (w >= 1.0) {
      ++next;
      return;
    }
    if (w <= 0.0) {
      next = std::numeric_limits<std::uint64_t>::max();
      return;
    }
    const double skip = std::floor(std::log(draw_positive(rng)) /
                                   std::log1p(-w));
    if (!(skip < 1e18)) {
      next = std::numeric_limits<std::uint64_t>::max();
      return;
    }
    next += static_cast<std::uint64_t>(skip) + 1;
  }

  /// One Algorithm L step after an acceptance: w *= U^(1/k), then skip a
  /// Geometric(w) run of guaranteed rejections.
  static void advance_local(streamapprox::Rng& rng, double inv_capacity,
                            double& w, std::uint64_t& next) {
    w *= std::exp(std::log(draw_positive(rng)) * inv_capacity);
    schedule_local(rng, w, next);
  }

  /// (Re)establishes the skip state for the current (seen_, capacity_).
  /// At fill time (seen_ == k) this draws W ~ Beta(k, 1) = U^(1/k) — the
  /// classic Algorithm L prime. After a shrink / merge / take it draws the
  /// exact conditional law W ~ Beta(k, s-k+1): the acceptance probability of
  /// Algorithm L after s items is distributed as 1 minus the k-th largest of
  /// s uniforms, so re-priming from it leaves every future stream position's
  /// acceptance probability at exactly N/i — no bias from the restart.
  void prime() {
    if (seen_ <= capacity_) {
      w_ = std::exp(std::log(draw_positive(rng_)) * inv_capacity_);
    } else {
      const double g1 = rng_.gamma(static_cast<double>(capacity_), 1.0);
      const double g2 = rng_.gamma(
          static_cast<double>(seen_ - capacity_ + 1), 1.0);
      w_ = g1 / (g1 + g2);
    }
    next_accept_ = seen_;
    schedule_local(rng_, w_, next_accept_);
    primed_ = true;
  }

  /// Per-record twin of the bulk loop's advance_local call.
  void advance() { advance_local(rng_, inv_capacity_, w_, next_accept_); }

  std::size_t capacity_;
  double inv_capacity_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  double w_ = 1.0;
  std::uint64_t next_accept_ = 0;
  /// False whenever (w_, next_accept_) does not describe the current
  /// (seen_, capacity_) — after construction, reset, shrink, merge, take.
  bool primed_ = false;
  streamapprox::Rng rng_;
};

}  // namespace streamapprox::sampling
