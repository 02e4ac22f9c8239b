#include "sketch/sketches.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace streamapprox::sketch {
namespace {

constexpr double kEulersNumber = 2.718281828459045;

// Folds (tag, value) into an order-insensitive digest accumulator: each cell
// is mixed independently and the results are summed, so the digest depends
// only on the multiset of cells, matching the merge semantics.
std::uint64_t fold(std::uint64_t acc, std::uint64_t tag,
                   std::uint64_t value) noexcept {
  return acc + mix64(tag * 0x9ddfea08eb382d69ULL + value);
}

}  // namespace

// ---------------------------------------------------------------------------
// CountMinSketch

std::size_t CountMinSketch::width_for(double epsilon) {
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    throw std::invalid_argument("count-min epsilon must be in (0, 1)");
  }
  return static_cast<std::size_t>(std::ceil(kEulersNumber / epsilon));
}

std::size_t CountMinSketch::depth_for(double delta) {
  if (!(delta > 0.0) || delta >= 1.0) {
    throw std::invalid_argument("count-min delta must be in (0, 1)");
  }
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::log(1.0 / delta))));
}

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed)
    : width_(width), depth_(depth), seed_(seed) {
  if (width_ == 0 || depth_ == 0) {
    throw std::invalid_argument("count-min width and depth must be positive");
  }
  counters_.assign(width_ * depth_, 0);
}

std::size_t CountMinSketch::index(std::size_t row,
                                  std::uint64_t key) const noexcept {
  const std::uint64_t h = mix64(key ^ mix64(seed_ + row));
  return row * width_ + static_cast<std::size_t>(h % width_);
}

void CountMinSketch::update(std::uint64_t key, std::uint64_t count) {
  for (std::size_t row = 0; row < depth_; ++row) {
    counters_[index(row, key)] += count;
  }
  total_ += count;
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint64_t best = counters_[index(0, key)];
  for (std::size_t row = 1; row < depth_; ++row) {
    best = std::min(best, counters_[index(row, key)]);
  }
  return best;
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_) {
    throw std::invalid_argument("count-min merge: incompatible sketches");
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  total_ += other.total_;
}

std::uint64_t CountMinSketch::digest() const noexcept {
  std::uint64_t acc = mix64(seed_ ^ (width_ * 131 + depth_));
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] != 0) acc = fold(acc, i, counters_[i]);
  }
  return mix64(acc ^ total_);
}

// ---------------------------------------------------------------------------
// HyperLogLog

int HyperLogLog::precision_for(double epsilon) {
  if (!(epsilon > 0.0)) {
    throw std::invalid_argument("hyperloglog epsilon must be positive");
  }
  for (int p = 4; p <= 18; ++p) {
    const double error = 1.04 / std::sqrt(static_cast<double>(1u << p));
    if (error <= epsilon) return p;
  }
  return 18;
}

HyperLogLog::HyperLogLog(int precision, std::uint64_t seed)
    : precision_(precision), seed_(seed) {
  if (precision_ < 4 || precision_ > 18) {
    throw std::invalid_argument("hyperloglog precision must be in [4, 18]");
  }
  registers_.assign(std::size_t{1} << precision_, 0);
}

void HyperLogLog::add(std::uint64_t key) {
  const std::uint64_t h = mix64(key ^ mix64(seed_));
  const std::size_t idx = static_cast<std::size_t>(h >> (64 - precision_));
  const std::uint64_t rest = h << precision_;
  const std::uint8_t rank = static_cast<std::uint8_t>(
      rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1);
  registers_[idx] = std::max(registers_[idx], rank);
}

double HyperLogLog::standard_error() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

double HyperLogLog::estimate() const {
  const double m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers_.size() == 16) alpha = 0.673;
  if (registers_.size() == 32) alpha = 0.697;
  if (registers_.size() == 64) alpha = 0.709;
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (precision_ != other.precision_ || seed_ != other.seed_) {
    throw std::invalid_argument("hyperloglog merge: incompatible sketches");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

std::uint64_t HyperLogLog::digest() const noexcept {
  std::uint64_t acc = mix64(seed_ ^ static_cast<std::uint64_t>(precision_));
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (registers_[i] != 0) acc = fold(acc, i, registers_[i]);
  }
  return mix64(acc);
}

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0) || alpha >= 1.0) {
    throw std::invalid_argument("quantile alpha must be in (0, 1)");
  }
  gamma_ = (1.0 + alpha) / (1.0 - alpha);
  log_gamma_ = std::log(gamma_);
  // DBL_MAX (where ±inf counts too) has the largest bucket index, and every
  // magnitude above 1e-12 one smaller in absolute value, so this one check
  // keeps every index in int32.
  if (!(std::ceil(std::log(std::numeric_limits<double>::max()) / log_gamma_) <=
        std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument(
        "quantile alpha is too small: the bucket index of DBL_MAX overflows "
        "int32");
  }
}

std::int32_t QuantileSketch::bucket_index(double magnitude) const {
  return static_cast<std::int32_t>(
      std::ceil(std::log(magnitude) / log_gamma_));
}

double QuantileSketch::representative(std::int32_t index) const {
  // Midpoint (harmonic) of bucket (γ^(i−1), γ^i]: 2γ^i / (γ+1) — within α
  // relative error of every value in the bucket.
  const double midpoint =
      2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
  if (std::isfinite(midpoint)) [[likely]] return midpoint;
  // The buckets next to DBL_MAX overflow γ^i or 2γ^i: take the midpoint from
  // γ^(i−1) instead, and DBL_MAX when even the midpoint is past it (every
  // finite value of the bucket is then at most DBL_MAX, so the error only
  // shrinks).
  return std::min(std::pow(gamma_, static_cast<double>(index) - 1.0) *
                      (2.0 * gamma_ / (gamma_ + 1.0)),
                  std::numeric_limits<double>::max());
}

void QuantileSketch::Store::add(std::int32_t index) {
  std::int64_t slot = std::int64_t{index} - offset_;
  if (static_cast<std::uint64_t>(slot) >= counts_.size()) [[unlikely]] {
    cover(index, index);
    slot = std::int64_t{index} - offset_;
  }
  ++counts_[static_cast<std::size_t>(slot)];
}

void QuantileSketch::Store::cover(std::int32_t lo, std::int32_t hi) {
  if (counts_.empty()) {
    offset_ = lo;
    counts_.assign(static_cast<std::size_t>(std::int64_t{hi} - lo + 1), 0);
    return;
  }
  // A side that grows gains at least kHeadroom buckets, so a stream whose
  // extreme walks outward one bucket at a time moves the store once per
  // kHeadroom buckets instead of once per bucket.
  constexpr std::int64_t kHeadroom = 64;
  const std::int64_t old_lo = offset_;
  const std::int64_t old_hi = old_lo + std::ssize(counts_) - 1;
  if (hi > old_hi) {
    const std::int64_t new_hi =
        std::min<std::int64_t>(std::max<std::int64_t>(hi, old_hi + kHeadroom),
                               std::numeric_limits<std::int32_t>::max());
    counts_.resize(static_cast<std::size_t>(new_hi - old_lo + 1), 0);
  }
  if (lo < old_lo) {
    const std::int64_t new_lo =
        std::max<std::int64_t>(std::min<std::int64_t>(lo, old_lo - kHeadroom),
                               std::numeric_limits<std::int32_t>::min());
    counts_.insert(counts_.begin(), static_cast<std::size_t>(old_lo - new_lo),
                   0);
    offset_ = static_cast<std::int32_t>(new_lo);
  }
}

void QuantileSketch::Store::merge(const Store& other) {
  if (other.counts_.empty()) return;
  const std::int64_t other_hi =
      std::int64_t{other.offset_} + std::ssize(other.counts_) - 1;
  cover(other.offset_, static_cast<std::int32_t>(other_hi));
  const auto shift = static_cast<std::size_t>(std::int64_t{other.offset_} -
                                              offset_);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[shift + i] += other.counts_[i];
  }
}

bool QuantileSketch::Store::agrees_within(const Store& other) const noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto slot = static_cast<std::uint64_t>(
        std::int64_t{offset_} + static_cast<std::int64_t>(i) - other.offset_);
    const std::uint64_t theirs =
        slot < other.counts_.size() ? other.counts_[slot] : 0;
    if (counts_[i] != theirs) return false;
  }
  return true;
}

void QuantileSketch::update(double value) {
  if (std::isnan(value)) return;  // no rank: not counted
  ++count_;
  // Magnitudes below the smallest representable bucket boundary collapse to
  // the zero bucket (their absolute value is ≤ 1e-12; relative error on such
  // answers is meaningless at double precision anyway). ±inf counts at the
  // bucket of ±DBL_MAX.
  const double magnitude =
      std::min(std::abs(value), std::numeric_limits<double>::max());
  if (magnitude <= 1e-12) {
    ++zero_count_;
  } else if (value > 0.0) {
    positive_.add(bucket_index(magnitude));
  } else {
    negative_.add(bucket_index(magnitude));
  }
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target =
      q * static_cast<double>(count_ - 1);  // rank in [0, count)
  std::uint64_t cumulative = 0;
  // Ascending value order: most-negative first (descending |v| index), then
  // zeros, then positives ascending. An empty bucket leaves `cumulative`
  // unchanged, so it never answers.
  const std::vector<std::uint64_t>& negative = negative_.counts();
  for (std::size_t i = negative.size(); i-- > 0;) {
    cumulative += negative[i];
    if (static_cast<double>(cumulative) > target) {
      return -representative(negative_.offset() + static_cast<std::int32_t>(i));
    }
  }
  cumulative += zero_count_;
  if (static_cast<double>(cumulative) > target) return 0.0;
  const std::vector<std::uint64_t>& positive = positive_.counts();
  for (std::size_t i = 0; i < positive.size(); ++i) {
    cumulative += positive[i];
    if (static_cast<double>(cumulative) > target) {
      return representative(positive_.offset() + static_cast<std::int32_t>(i));
    }
  }
  // Numerically unreachable; return the largest representative for safety.
  for (std::size_t i = positive.size(); i-- > 0;) {
    if (positive[i] != 0) {
      return representative(positive_.offset() + static_cast<std::int32_t>(i));
    }
  }
  return 0.0;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (alpha_ != other.alpha_) {
    throw std::invalid_argument("quantile merge: incompatible sketches");
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  positive_.merge(other.positive_);
  negative_.merge(other.negative_);
}

std::uint64_t QuantileSketch::digest() const noexcept {
  std::uint64_t acc = mix64(std::bit_cast<std::uint64_t>(alpha_));
  const auto fold_store = [&acc](const Store& store, std::uint64_t tag) {
    const std::vector<std::uint64_t>& counts = store.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      const auto index = store.offset() + static_cast<std::int32_t>(i);
      acc = fold(acc, static_cast<std::uint64_t>(index) * 2 + tag, counts[i]);
    }
  };
  fold_store(positive_, 2);
  fold_store(negative_, 3);
  return mix64(acc ^ (count_ * 0x9e3779b97f4a7c15ULL) ^ zero_count_);
}

}  // namespace streamapprox::sketch
