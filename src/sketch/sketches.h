// Mergeable sketch data structures for the non-linear query classes the
// OASRS sample cannot answer: heavy hitters (Count-Min), distinct counts
// (HyperLogLog) and quantiles (log-boundary bucket sketch).
//
// Every sketch here is sized from a per-query error target (width/depth from
// ε/δ for Count-Min, register count from ε for HyperLogLog, relative bucket
// width α for quantiles) and merges EXACTLY: merge() is commutative and
// associative, and a sketch built from any partition / interleaving of a
// stream equals the sketch built from the whole stream. That property is
// load-bearing — worker-local sketches merge at slide close through the same
// path as OasrsSampler::merge(), and the sharded / work-stealing runtimes
// must reproduce the sequential answers bit-for-bit even though record →
// worker assignment is nondeterministic. For the same reason the quantile
// sketch uses deterministic log-spaced buckets (DDSketch-style) rather than
// KLL's randomized compaction, whose state depends on arrival order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace streamapprox::sketch {

/// SplitMix64 finalizer — the stateless 64-bit mixer used to derive the
/// per-row Count-Min hashes and the HyperLogLog hash from a key and a seed.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Count-Min sketch (Cormode & Muthukrishnan): depth rows of width counters;
/// update adds to one counter per row, estimate takes the row minimum. With
/// width = ceil(e/ε) and depth = ceil(ln(1/δ)), each point estimate
/// overcounts by at most ε·N with probability ≥ 1−δ (N = total updates) and
/// never undercounts. Merging is element-wise counter addition — exact.
class CountMinSketch {
 public:
  /// Smallest width whose additive error guarantee is ε·N.
  static std::size_t width_for(double epsilon);
  /// Smallest depth whose failure probability is at most δ.
  static std::size_t depth_for(double delta);

  CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed);

  /// Convenience: sized directly from the (ε, δ) target.
  static CountMinSketch for_error(double epsilon, double delta,
                                  std::uint64_t seed) {
    return CountMinSketch(width_for(epsilon), depth_for(delta), seed);
  }

  void update(std::uint64_t key, std::uint64_t count = 1);

  /// Point estimate of key's frequency: true count ≤ estimate, and
  /// estimate ≤ true count + ε·total() with probability ≥ 1−δ.
  std::uint64_t estimate(std::uint64_t key) const;

  /// Total weight of all updates (N in the guarantee).
  std::uint64_t total() const noexcept { return total_; }

  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Element-wise counter addition. Throws std::invalid_argument when the
  /// shapes or seeds differ (merging is only defined for sketches built
  /// from the same spec).
  void merge(const CountMinSketch& other);

  /// Order-insensitive structural digest (for property tests).
  std::uint64_t digest() const noexcept;

  friend bool operator==(const CountMinSketch&,
                         const CountMinSketch&) = default;

 private:
  std::size_t index(std::size_t row, std::uint64_t key) const noexcept;

  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counters_;  // depth_ rows of width_ counters
};

/// HyperLogLog (Flajolet et al.): 2^p registers each holding the maximum
/// leading-zero rank seen in its substream. Standard error ≈ 1.04/√(2^p);
/// the small-range regime uses linear counting. Merging is element-wise
/// register max — exact.
class HyperLogLog {
 public:
  /// Smallest precision p (register count 2^p) whose standard error
  /// 1.04/√(2^p) is at most ε. Clamped to [4, 18].
  static int precision_for(double epsilon);

  explicit HyperLogLog(int precision, std::uint64_t seed);

  static HyperLogLog for_error(double epsilon, std::uint64_t seed) {
    return HyperLogLog(precision_for(epsilon), seed);
  }

  void add(std::uint64_t key);

  /// Estimated number of distinct keys added.
  double estimate() const;

  int precision() const noexcept { return precision_; }
  std::size_t register_count() const noexcept { return registers_.size(); }

  /// Relative standard error of estimate() (1.04/√m).
  double standard_error() const noexcept;

  /// Element-wise register max. Throws std::invalid_argument on
  /// precision/seed mismatch.
  void merge(const HyperLogLog& other);

  std::uint64_t digest() const noexcept;

  friend bool operator==(const HyperLogLog&, const HyperLogLog&) = default;

 private:
  int precision_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> registers_;
};

/// Quantile sketch over log-spaced buckets (DDSketch; Masson, Rim & Lee,
/// VLDB 2019): bucket i covers (γ^(i−1), γ^i] with γ = (1+α)/(1−α), so any
/// reported quantile of the positive (or negative, via a mirrored store)
/// values has relative value error at most α — deterministically, not just
/// in expectation. Each sign keeps DDSketch's dense store, so an update is
/// an index and an add and a merge is an element-wise add — exact. This
/// fills the KLL slot of the query family; KLL's randomized compaction was
/// rejected because its state depends on arrival order, which would break
/// sharded ≡ sequential bit-identity.
class QuantileSketch {
 public:
  /// Throws std::invalid_argument unless α ∈ (0, 1) and α is large enough
  /// that the bucket index of DBL_MAX fits in int32 (α ≳ 1.7e-7).
  explicit QuantileSketch(double alpha);

  /// Counts one value. ±inf counts at the bucket of ±DBL_MAX, so it ranks
  /// as the extreme value and answers finitely; NaN has no rank and is
  /// skipped (count() does not include it). Magnitudes ≤ 1e-12 count as 0.
  void update(double value);

  /// Value at quantile q ∈ [0, 1] (midpoint of the covering bucket, so the
  /// relative error vs. the exact quantile value is ≤ α for non-zero
  /// answers). Returns 0 when empty.
  double quantile(double q) const;

  std::uint64_t count() const noexcept { return count_; }
  double alpha() const noexcept { return alpha_; }

  /// Bucket-count addition. Throws std::invalid_argument on α mismatch.
  void merge(const QuantileSketch& other);

  std::uint64_t digest() const noexcept;

  /// Equal bucket contents (stores compare by content, see Store).
  friend bool operator==(const QuantileSketch&,
                         const QuantileSketch&) = default;

 private:
  /// DDSketch's dense store: counts()[i] is the count of bucket
  /// offset() + i. The extent grows at either end to cover a new index, so
  /// memory is one counter per bucket between the smallest and largest
  /// magnitude seen (plus a little headroom). The extent depends on the
  /// order the store grew in, so equality compares bucket contents, with
  /// buckets outside an extent counting 0.
  class Store {
   public:
    void add(std::int32_t index);
    void merge(const Store& other);

    std::int32_t offset() const noexcept { return offset_; }
    const std::vector<std::uint64_t>& counts() const noexcept {
      return counts_;
    }

    friend bool operator==(const Store& a, const Store& b) noexcept {
      return a.agrees_within(b) && b.agrees_within(a);
    }

   private:
    /// Grows the extent to cover [lo, hi].
    void cover(std::int32_t lo, std::int32_t hi);
    /// Every bucket in this store's extent has the same count in `other`
    /// (0 outside `other`'s extent).
    bool agrees_within(const Store& other) const noexcept;

    std::int32_t offset_ = 0;
    std::vector<std::uint64_t> counts_;
  };

  std::int32_t bucket_index(double magnitude) const;
  double representative(std::int32_t index) const;

  double alpha_ = 0.0;
  double gamma_ = 0.0;
  double log_gamma_ = 0.0;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  Store positive_;
  Store negative_;  // indexed by the bucket of |v|
};

}  // namespace streamapprox::sketch
