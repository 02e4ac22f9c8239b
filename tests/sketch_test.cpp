// Statistical acceptance tests for the sketch data structures: ε/δ sizing,
// fixed-seed error bounds on Zipf and uniform key streams, and merge
// property tests (associativity / commutativity / partition-exactness) over
// randomized splits — the properties the sharded runtime's bit-identity
// guarantee rests on.
#include "sketch/sketches.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace streamapprox::sketch {
namespace {

std::vector<std::uint64_t> zipf_keys(std::size_t n, std::uint64_t universe,
                                     double s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.zipf(universe, s));
  return keys;
}

std::vector<std::uint64_t> uniform_keys(std::size_t n, std::uint64_t universe,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.uniform_int(universe));
  return keys;
}

// ---------------------------------------------------------------- Count-Min

TEST(CountMin, SizingFollowsErrorTargets) {
  // width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉ — the classic guarantee-driven sizing.
  EXPECT_EQ(CountMinSketch::width_for(0.01), 272u);
  EXPECT_EQ(CountMinSketch::width_for(0.001), 2719u);
  EXPECT_EQ(CountMinSketch::depth_for(0.01), 5u);
  EXPECT_EQ(CountMinSketch::depth_for(0.1), 3u);
  EXPECT_THROW(CountMinSketch::width_for(0.0), std::invalid_argument);
  EXPECT_THROW(CountMinSketch::depth_for(1.0), std::invalid_argument);

  const auto cm = CountMinSketch::for_error(0.01, 0.01, 7);
  EXPECT_EQ(cm.width(), 272u);
  EXPECT_EQ(cm.depth(), 5u);
}

TEST(CountMin, NeverUndercounts) {
  CountMinSketch cm(64, 3, 42);  // deliberately narrow: collisions certain
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(11);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.zipf(500, 1.2);
    cm.update(key);
    ++exact[key];
  }
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cm.estimate(key), count);
  }
}

// Fixed-seed acceptance: the measured per-key error stays within the
// configured ε·N bound for at least a 1−δ fraction of probes (the guarantee
// is per-key probabilistic), on both skewed and uniform key streams.
void expect_count_min_error_bound(const std::vector<std::uint64_t>& keys,
                                  double epsilon, double delta,
                                  std::uint64_t seed) {
  auto cm = CountMinSketch::for_error(epsilon, delta, seed);
  std::map<std::uint64_t, std::uint64_t> exact;
  for (const std::uint64_t key : keys) {
    cm.update(key);
    ++exact[key];
  }
  ASSERT_EQ(cm.total(), keys.size());
  const double bound =
      epsilon * static_cast<double>(keys.size());
  std::size_t probes = 0;
  std::size_t within = 0;
  for (const auto& [key, count] : exact) {
    const std::uint64_t estimate = cm.estimate(key);
    ASSERT_GE(estimate, count);
    const double overcount = static_cast<double>(estimate - count);
    ++probes;
    if (overcount <= bound) ++within;
    // Even δ-tail failures stay within a small multiple of the bound at
    // these sizes — a hard backstop against gross hashing defects.
    EXPECT_LE(overcount, 5.0 * bound + 1.0);
  }
  EXPECT_GE(static_cast<double>(within),
            (1.0 - delta) * static_cast<double>(probes));
}

TEST(CountMin, ErrorWithinBoundOnZipfStream) {
  expect_count_min_error_bound(zipf_keys(200'000, 10'000, 1.2, 101),
                               /*epsilon=*/0.005, /*delta=*/0.01, 1);
}

TEST(CountMin, ErrorWithinBoundOnUniformStream) {
  expect_count_min_error_bound(uniform_keys(200'000, 5'000, 202),
                               /*epsilon=*/0.005, /*delta=*/0.01, 2);
}

// -------------------------------------------------------------- HyperLogLog

TEST(HyperLogLog, SizingFollowsErrorTarget) {
  // 1.04/√(2^p) ≤ ε, clamped to [4, 18].
  EXPECT_EQ(HyperLogLog::precision_for(0.3), 4);
  EXPECT_EQ(HyperLogLog::precision_for(0.02), 12);
  EXPECT_EQ(HyperLogLog::precision_for(1e-9), 18);
  EXPECT_THROW(HyperLogLog::precision_for(0.0), std::invalid_argument);

  const HyperLogLog hll(12, 7);
  EXPECT_EQ(hll.register_count(), 4096u);
  EXPECT_NEAR(hll.standard_error(), 1.04 / 64.0, 1e-12);
}

void expect_hll_error_bound(const std::vector<std::uint64_t>& keys,
                            double epsilon, std::uint64_t seed) {
  auto hll = HyperLogLog::for_error(epsilon, seed);
  std::set<std::uint64_t> exact;
  for (const std::uint64_t key : keys) {
    hll.add(key);
    exact.insert(key);
  }
  const double truth = static_cast<double>(exact.size());
  // 4σ acceptance on a fixed seed: σ = 1.04/√m ≤ ε by construction.
  EXPECT_NEAR(hll.estimate(), truth, 4.0 * epsilon * truth + 2.0)
      << "true distinct " << truth;
}

TEST(HyperLogLog, ErrorWithinBoundOnZipfStream) {
  // Zipf visits a heavy head plus a long sampled tail: the distinct set is
  // well below the universe and the estimate must still track it.
  expect_hll_error_bound(zipf_keys(300'000, 50'000, 1.1, 303), 0.02, 3);
}

TEST(HyperLogLog, ErrorWithinBoundOnUniformStream) {
  expect_hll_error_bound(uniform_keys(300'000, 40'000, 404), 0.02, 4);
}

TEST(HyperLogLog, SmallRangeUsesLinearCounting) {
  HyperLogLog hll(12, 9);
  for (std::uint64_t k = 0; k < 100; ++k) hll.add(k);
  EXPECT_NEAR(hll.estimate(), 100.0, 3.0);
}

// ---------------------------------------------------------------- Quantiles

TEST(Quantile, DeterministicRelativeErrorBound) {
  // The log-bucket guarantee is deterministic: EVERY reported quantile of a
  // nonzero-valued stream is within α of the exact quantile value.
  const double alpha = 0.01;
  for (const std::uint64_t seed : {55u, 56u}) {
    QuantileSketch sketch(alpha);
    Rng rng(seed);
    std::vector<double> values;
    for (int i = 0; i < 50'000; ++i) {
      // Mixed-sign heavy-tailed values exercise both bucket stores.
      const double v = rng.lognormal(2.0, 1.5) * (rng.uniform() < 0.25 ? -1 : 1);
      values.push_back(v);
      sketch.update(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      const double exact = values[static_cast<std::size_t>(
          q * static_cast<double>(values.size() - 1))];
      const double approx = sketch.quantile(q);
      EXPECT_NEAR(approx, exact, alpha * std::abs(exact) + 1e-9)
          << "q=" << q << " seed=" << seed;
    }
  }
}

TEST(Quantile, HandlesZerosAndEmpty) {
  QuantileSketch sketch(0.05);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  sketch.update(0.0);
  sketch.update(0.0);
  sketch.update(10.0);
  EXPECT_EQ(sketch.quantile(0.25), 0.0);
  EXPECT_NEAR(sketch.quantile(1.0), 10.0, 0.5);
}

// Golden values recorded from the earlier std::map bucket stores: the dense
// stores must reproduce every digest and every answer bit for bit.
std::vector<double> golden_stream() {
  // 200k mixed-sign log-normal values, 5 % of them exactly zero.
  Rng rng(20190704);
  std::vector<double> values;
  values.reserve(200'000);
  for (int i = 0; i < 200'000; ++i) {
    const double u = rng.uniform();
    if (u < 0.05) {
      values.push_back(0.0);
      continue;
    }
    const double magnitude = rng.lognormal(1.0, 2.5);
    values.push_back(u < 0.35 ? -magnitude : magnitude);
  }
  return values;
}

TEST(Quantile, GoldenDigestsAndAnswers) {
  struct Golden {
    double alpha;
    std::uint64_t digest;
    std::array<double, 7> answers;  // at kProbes
  };
  constexpr std::array<double, 7> kProbes = {0.0,  0.01, 0.25, 0.5,
                                             0.75, 0.99, 1.0};
  const std::array<Golden, 3> goldens = {{
      {0.01, 0xb119e1289c52e423ULL,
       {-99741.157797414926, -273.18166371111323, -0.23454722188287233,
        0.43601541932813259, 5.7546506369829293, 607.99318741106924,
        287900.15720533475}},
      {0.02, 0x26c53289bf418765ULL,
       {-98847.512256460279, -265.21588072801967, -0.23214461676056133,
        0.4402954062106802, 5.6975258299456781, 614.40613398799997,
        291116.17578886478}},
      {0.05, 0x1436db06d3c0c431ULL,
       {-104651.16898347739, -258.10858921508179, -0.23399355325756208,
        0.42657760839696091, 5.7558052813421412, 635.32171717657991,
        284708.88577545388}},
  }};
  const std::vector<double> values = golden_stream();
  for (const Golden& golden : goldens) {
    QuantileSketch sketch(golden.alpha);
    for (const double v : values) sketch.update(v);
    EXPECT_EQ(sketch.count(), values.size());
    EXPECT_EQ(sketch.digest(), golden.digest) << "alpha=" << golden.alpha;
    for (std::size_t i = 0; i < kProbes.size(); ++i) {
      EXPECT_EQ(sketch.quantile(kProbes[i]), golden.answers[i])
          << "alpha=" << golden.alpha << " q=" << kProbes[i];
    }
  }
}

TEST(Quantile, EqualityIgnoresGrowthOrder) {
  // A store's extent depends on the order it grew in; equality and the
  // digest must not.
  std::vector<double> values = golden_stream();
  values.resize(20'000);
  std::sort(values.begin(), values.end(),
            [](double a, double b) { return std::abs(a) < std::abs(b); });
  QuantileSketch low_first(0.02);
  for (const double v : values) low_first.update(v);
  QuantileSketch high_first(0.02);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    high_first.update(*it);
  }
  // Merged from parts: the extremes first, then the middle, into a fresh
  // sketch.
  QuantileSketch extremes(0.02);
  QuantileSketch middle(0.02);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const bool outer = i < 2'000 || i + 2'000 >= values.size();
    (outer ? extremes : middle).update(values[i]);
  }
  QuantileSketch merged(0.02);
  merged.merge(extremes);
  merged.merge(middle);

  EXPECT_EQ(low_first, high_first);
  EXPECT_EQ(low_first, merged);
  EXPECT_EQ(high_first.digest(), low_first.digest());
  EXPECT_EQ(merged.digest(), low_first.digest());
  QuantileSketch one_more = merged;
  one_more.update(values.front());
  EXPECT_FALSE(one_more == merged);
  EXPECT_NE(one_more.digest(), merged.digest());
}

TEST(Quantile, PositiveInfinityRanksAsLargest) {
  const double alpha = 0.01;
  const double max = std::numeric_limits<double>::max();
  QuantileSketch sketch(alpha);
  for (int v = 1; v <= 100; ++v) sketch.update(v);
  sketch.update(std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.count(), 101u);
  EXPECT_NEAR(sketch.quantile(0.0), 1.0, alpha);
  EXPECT_NEAR(sketch.quantile(0.5), 51.0, alpha * 51.0);
  EXPECT_NEAR(sketch.quantile(0.99), 100.0, alpha * 100.0);
  const double top = sketch.quantile(1.0);
  EXPECT_TRUE(std::isfinite(top));
  EXPECT_NEAR(top / max, 1.0, alpha);
}

TEST(Quantile, NegativeInfinityRanksAsSmallest) {
  const double alpha = 0.01;
  const double max = std::numeric_limits<double>::max();
  QuantileSketch sketch(alpha);
  sketch.update(-std::numeric_limits<double>::infinity());
  for (int v = 1; v <= 100; ++v) sketch.update(-v);
  sketch.update(-max);
  EXPECT_EQ(sketch.count(), 102u);
  const double bottom = sketch.quantile(0.0);
  EXPECT_TRUE(std::isfinite(bottom));
  EXPECT_NEAR(bottom / -max, 1.0, alpha);
  EXPECT_NEAR(sketch.quantile(0.01) / -max, 1.0, alpha);
  EXPECT_NEAR(sketch.quantile(1.0), -1.0, alpha);
}

TEST(Quantile, NanIsSkippedAndNotCounted) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QuantileSketch with_nan(0.01);
  QuantileSketch without(0.01);
  for (int v = -50; v <= 50; ++v) {
    with_nan.update(v);
    without.update(v);
    if (v % 10 == 0) with_nan.update(v < 0 ? -nan : nan);
  }
  EXPECT_EQ(with_nan.count(), 101u);
  EXPECT_EQ(with_nan, without);
  EXPECT_EQ(with_nan.digest(), without.digest());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(with_nan.quantile(q), without.quantile(q)) << "q=" << q;
  }
}

TEST(Quantile, TinyAndHugeMagnitudesInOneSketch) {
  // 1e-11 and 1e300 span about 36k buckets at α = 0.01; both answer within
  // α, and so does a merge of the two apart.
  const double alpha = 0.01;
  QuantileSketch sketch(alpha);
  QuantileSketch tiny(alpha);
  QuantileSketch huge(alpha);
  for (int i = 0; i < 10; ++i) {
    sketch.update(1e-11);
    tiny.update(1e-11);
    sketch.update(1e300);
    huge.update(1e300);
  }
  EXPECT_NEAR(sketch.quantile(0.0), 1e-11, alpha * 1e-11);
  EXPECT_NEAR(sketch.quantile(1.0), 1e300, alpha * 1e300);
  huge.merge(tiny);
  EXPECT_EQ(huge, sketch);
  EXPECT_EQ(huge.digest(), sketch.digest());
}

TEST(Quantile, RejectsAlphaOutsideItsRange) {
  EXPECT_THROW(QuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(1.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // So small that the bucket index of DBL_MAX would overflow int32.
  EXPECT_THROW(QuantileSketch(1e-8), std::invalid_argument);
  EXPECT_NO_THROW(QuantileSketch(1e-6));
}

// ---------------------------------------------- Merge property tests
//
// For each sketch: build one sketch over the whole stream, then split the
// stream into random parts, build one sketch per part, merge them in a
// random order/association, and require EXACT equality with the whole-stream
// sketch. Randomized splits + shuffled merge order cover commutativity and
// associativity in one property; equality (operator== over the full state,
// plus the digest) is the bit-identity the sharded runtime relies on.

template <typename Sketch, typename UpdateFn>
void expect_merge_partition_exact(const std::vector<std::uint64_t>& keys,
                                  const Sketch& reference,
                                  const UpdateFn& update,
                                  const std::function<Sketch()>& fresh) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t parts = 2 + rng.uniform_int(6);
    std::vector<Sketch> partial;
    for (std::size_t p = 0; p < parts; ++p) partial.push_back(fresh());
    // Random assignment of records to parts (workers), preserving nothing
    // about order or balance.
    for (const std::uint64_t key : keys) {
      update(partial[rng.uniform_int(parts)], key);
    }
    // Merge in random association: repeatedly fold a random sketch into
    // another random one until one remains.
    std::vector<std::size_t> alive(parts);
    std::iota(alive.begin(), alive.end(), 0u);
    while (alive.size() > 1) {
      const std::size_t a = rng.uniform_int(alive.size());
      std::size_t b = rng.uniform_int(alive.size() - 1);
      if (b >= a) ++b;
      partial[alive[a]].merge(partial[alive[b]]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(b));
    }
    const Sketch& merged = partial[alive.front()];
    EXPECT_EQ(merged, reference) << "trial " << trial;
    EXPECT_EQ(merged.digest(), reference.digest()) << "trial " << trial;
  }
}

TEST(SketchMerge, CountMinPartitionExact) {
  const auto keys = zipf_keys(30'000, 2'000, 1.1, 77);
  auto reference = CountMinSketch::for_error(0.01, 0.05, 5);
  for (const std::uint64_t key : keys) reference.update(key);
  expect_merge_partition_exact<CountMinSketch>(
      keys, reference,
      [](CountMinSketch& cm, std::uint64_t key) { cm.update(key); },
      [] { return CountMinSketch::for_error(0.01, 0.05, 5); });
}

TEST(SketchMerge, HyperLogLogPartitionExact) {
  const auto keys = uniform_keys(30'000, 10'000, 88);
  auto reference = HyperLogLog::for_error(0.03, 6);
  for (const std::uint64_t key : keys) reference.add(key);
  expect_merge_partition_exact<HyperLogLog>(
      keys, reference,
      [](HyperLogLog& hll, std::uint64_t key) { hll.add(key); },
      [] { return HyperLogLog::for_error(0.03, 6); });
}

TEST(SketchMerge, QuantilePartitionExact) {
  const auto keys = zipf_keys(30'000, 5'000, 1.0, 99);
  QuantileSketch reference(0.02);
  const auto update = [](QuantileSketch& s, std::uint64_t key) {
    // Signed value derived from the key so both stores participate.
    const double v = (key % 3 == 0 ? -1.0 : 1.0) *
                     (static_cast<double>(key) + 0.5);
    s.update(v);
  };
  for (const std::uint64_t key : keys) update(reference, key);
  expect_merge_partition_exact<QuantileSketch>(
      keys, reference, update, [] { return QuantileSketch(0.02); });
}

TEST(SketchMerge, IncompatibleShapesThrow) {
  auto a = CountMinSketch(64, 3, 1);
  auto b = CountMinSketch(64, 4, 1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  HyperLogLog h1(8, 1), h2(9, 1);
  EXPECT_THROW(h1.merge(h2), std::invalid_argument);
  QuantileSketch q1(0.01), q2(0.02);
  EXPECT_THROW(q1.merge(q2), std::invalid_argument);
}

}  // namespace
}  // namespace streamapprox::sketch
