// Tests for the Algorithm R reservoir (paper Algorithm 1): size bounds,
// counters, Eq. 1 weights, selection uniformity (chi-square) over per-record
// and run offers and after a mid-stream shrink, allocation, distributed
// merge.
#include "sampling/reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace streamapprox::sampling {
namespace {

TEST(Reservoir, FillsUpToCapacity) {
  ReservoirSampler<int> reservoir(10, 1);
  for (int i = 0; i < 5; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 5u);
  EXPECT_EQ(reservoir.seen(), 5u);
  // Under-filled: every item kept in arrival order.
  EXPECT_EQ(reservoir.items(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Reservoir, NeverExceedsCapacity) {
  ReservoirSampler<int> reservoir(10, 2);
  for (int i = 0; i < 10000; ++i) {
    reservoir.offer(i);
    ASSERT_LE(reservoir.items().size(), 10u);
  }
  EXPECT_EQ(reservoir.items().size(), 10u);
  EXPECT_EQ(reservoir.seen(), 10000u);
}

TEST(Reservoir, WeightFollowsEquationOne) {
  ReservoirSampler<int> reservoir(10, 3);
  for (int i = 0; i < 5; ++i) reservoir.offer(i);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 1.0);  // C_i <= N_i
  for (int i = 5; i < 40; ++i) reservoir.offer(i);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 4.0);  // C_i/N_i = 40/10
}

TEST(Reservoir, ZeroCapacityKeepsNothing) {
  ReservoirSampler<int> reservoir(0, 4);
  for (int i = 0; i < 100; ++i) reservoir.offer(i);
  EXPECT_TRUE(reservoir.items().empty());
  EXPECT_EQ(reservoir.seen(), 100u);
}

// Selection uniformity: over many trials, every stream position should land
// in the reservoir with probability N/n. Chi-square over 100 positions with
// 99 dof: critical value at alpha=0.001 is ~148.2.
TEST(Reservoir, SelectionIsUniform) {
  constexpr int kStream = 100;
  constexpr int kCapacity = 10;
  constexpr int kTrials = 20000;
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(kCapacity, 1000 + t);
    for (int i = 0; i < kStream; ++i) reservoir.offer(i);
    for (int item : reservoir.items()) hits[item] += 1.0;
  }
  const std::vector<double> expected(
      kStream, kTrials * static_cast<double>(kCapacity) / kStream);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

TEST(Reservoir, SampleMeanTracksStreamMean) {
  ReservoirSampler<double> reservoir(500, 7);
  streamapprox::RunningStats stream;
  streamapprox::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.gaussian(50.0, 10.0);
    stream.add(x);
    reservoir.offer(x);
  }
  streamapprox::RunningStats sample;
  for (double x : reservoir.items()) sample.add(x);
  EXPECT_NEAR(sample.mean(), stream.mean(), 2.0);  // ~4 sigma of SE
}

TEST(Reservoir, TakeItemsMovesOut) {
  ReservoirSampler<int> reservoir(4, 8);
  for (int i = 0; i < 4; ++i) reservoir.offer(i);
  auto items = reservoir.take_items();
  EXPECT_EQ(items.size(), 4u);
  EXPECT_TRUE(reservoir.items().empty());
  EXPECT_EQ(reservoir.seen(), 4u);  // counter unaffected
}

// A stratum's capacity can be the whole slide budget (2^26 at the feedback
// cap) while it holds a few records: the sample vector must grow with what
// arrives, not reserve the capacity.
TEST(Reservoir, AllocatesOnlyWhatItHolds) {
  constexpr std::size_t kCapacity = std::size_t{1} << 26;
  ReservoirSampler<int> reservoir(kCapacity, 17);
  for (int i = 0; i < 3; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 3u);
  EXPECT_LT(reservoir.items().capacity(), kCapacity);
}

// offer() is offer_run() over one item, and a run draws what its items
// offered one at a time would draw, so cutting a stream into runs changes
// nothing. Ragged run lengths cross the fill boundary and put acceptances
// both at run edges and inside runs.
TEST(Reservoir, OfferRunMatchesPerRecordOffer) {
  constexpr std::size_t kCapacity = 32;
  constexpr int kStream = 5000;
  std::vector<int> stream(kStream);
  std::iota(stream.begin(), stream.end(), 0);

  ReservoirSampler<int> per_record(kCapacity, 77);
  ReservoirSampler<int> runs(kCapacity, 77);
  for (int x : stream) per_record.offer(x);
  const std::size_t lengths[] = {7, 64, 1, 130, 3, 500};
  std::size_t i = 0, c = 0;
  while (i < stream.size()) {
    const std::size_t n = std::min(lengths[c++ % 6], stream.size() - i);
    runs.offer_run(stream.data() + i, n);
    i += n;
  }
  EXPECT_EQ(per_record.seen(), runs.seen());
  EXPECT_EQ(per_record.items(), runs.items());
  EXPECT_DOUBLE_EQ(per_record.weight(), runs.weight());
}

// Selection uniformity through offer_run: every one of 2000 stream positions
// must land in the sample with probability N/n. Positions are bucketed
// 20-wide; chi-square with 99 dof, alpha=0.001 critical ~148.2.
TEST(Reservoir, RunSelectionIsUniform) {
  constexpr int kStream = 2000;
  constexpr std::size_t kCapacity = 50;
  constexpr int kTrials = 1000;
  constexpr int kBuckets = 100;
  constexpr int kWidth = kStream / kBuckets;
  std::vector<int> stream(kStream);
  std::iota(stream.begin(), stream.end(), 0);
  std::vector<double> hits(kBuckets, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(kCapacity, 31000 + t);
    for (int i = 0; i < kStream; i += 64) {
      reservoir.offer_run(stream.data() + i,
                          std::min<std::size_t>(64, kStream - i));
    }
    for (int item : reservoir.items()) hits[item / kWidth] += 1.0;
  }
  const std::vector<double> expected(
      kBuckets, kTrials * static_cast<double>(kCapacity) / kBuckets);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

// OASRS shrinks every reservoir whenever a new stratum joins the shared
// budget, mid-stream. Selection must stay uniform across the shrink: the
// positions before it must not be over- or under-represented in the final
// sample. Chi-square as above.
TEST(Reservoir, ShrinkKeepsSelectionUniform) {
  constexpr int kStream = 2000;  // 1000 before the shrink, 1000 after
  constexpr int kTrials = 2000;
  constexpr int kBuckets = 100;
  constexpr int kWidth = kStream / kBuckets;
  std::vector<int> stream(kStream);
  std::iota(stream.begin(), stream.end(), 0);
  std::vector<double> hits(kBuckets, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(64, 64000 + t);
    reservoir.offer_run(stream.data(), 1000);
    reservoir.shrink_capacity(16);
    reservoir.offer_run(stream.data() + 1000, 1000);
    EXPECT_EQ(reservoir.seen(), 2000u);
    EXPECT_EQ(reservoir.items().size(), 16u);
    for (int item : reservoir.items()) hits[item / kWidth] += 1.0;
  }
  const std::vector<double> expected(kBuckets, kTrials * 16.0 / kBuckets);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

// Counters and sizes across the operations OASRS exercises, in the order it
// runs them: take keeps the counters, shrink then continue, zero capacity,
// merge then continue.
TEST(Reservoir, CountersSurviveTakeShrinkAndMerge) {
  ReservoirSampler<int> r(8, 1);
  for (int i = 0; i < 100; ++i) r.offer(i);
  EXPECT_EQ(r.seen(), 100u);
  EXPECT_EQ(r.items().size(), 8u);
  EXPECT_DOUBLE_EQ(r.weight(), 100.0 / 8.0);

  const auto taken = r.take_items();
  EXPECT_EQ(taken.size(), 8u);
  EXPECT_EQ(r.seen(), 100u);  // counters survive the take
  EXPECT_TRUE(r.items().empty());

  ReservoirSampler<int> shrunk(4, 5);
  for (int i = 0; i < 50; ++i) shrunk.offer(i);
  shrunk.shrink_capacity(2);
  EXPECT_EQ(shrunk.capacity(), 2u);
  EXPECT_EQ(shrunk.items().size(), 2u);
  EXPECT_EQ(shrunk.seen(), 50u);
  EXPECT_DOUBLE_EQ(shrunk.weight(), 25.0);
  for (int i = 50; i < 200; ++i) shrunk.offer(i);  // sampling continues
  EXPECT_EQ(shrunk.seen(), 200u);
  EXPECT_EQ(shrunk.items().size(), 2u);

  ReservoirSampler<int> zero(0, 2);
  int payload = 1;
  zero.offer(payload);
  EXPECT_EQ(zero.offer_run(&payload, 1), 0u);
  EXPECT_EQ(zero.seen(), 2u);
  EXPECT_TRUE(zero.items().empty());

  ReservoirSampler<int> a(10, 3);
  ReservoirSampler<int> b(10, 4);
  for (int i = 0; i < 100; ++i) a.offer(i);
  for (int i = 100; i < 150; ++i) b.offer(i);
  a.merge_from(b.items(), b.seen());
  EXPECT_EQ(a.seen(), 150u);
  EXPECT_EQ(a.items().size(), 10u);
  for (int i = 150; i < 400; ++i) a.offer(i);  // sampling continues
  EXPECT_EQ(a.seen(), 400u);
  EXPECT_EQ(a.items().size(), 10u);
}

TEST(ReservoirMerge, CountsAccumulate) {
  ReservoirSampler<int> a(10, 9);
  ReservoirSampler<int> b(10, 10);
  for (int i = 0; i < 100; ++i) a.offer(i);
  for (int i = 100; i < 150; ++i) b.offer(i);
  a.merge_from(b.items(), b.seen());
  EXPECT_EQ(a.seen(), 150u);
  EXPECT_EQ(a.items().size(), 10u);
}

TEST(ReservoirMerge, EmptySidesAreNoOps) {
  ReservoirSampler<int> a(10, 11);
  ReservoirSampler<int> b(10, 12);
  for (int i = 0; i < 20; ++i) a.offer(i);
  const auto before = a.items();
  a.merge_from(b.items(), b.seen());  // empty rhs
  EXPECT_EQ(a.items(), before);
  EXPECT_EQ(a.seen(), 20u);

  ReservoirSampler<int> c(10, 13);
  c.merge_from(a.items(), a.seen());  // empty lhs adopts rhs sample
  EXPECT_EQ(c.seen(), 20u);
  EXPECT_EQ(c.items().size(), 10u);
}

TEST(ReservoirMerge, ProportionalRepresentation) {
  // Merge a reservoir that saw 9000 items with one that saw 1000: about 90%
  // of merged slots should come from the first stream.
  constexpr int kTrials = 2000;
  double from_big = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> big(20, 2000 + t);
    ReservoirSampler<int> small(20, 7000 + t);
    for (int i = 0; i < 9000; ++i) big.offer(1);
    for (int i = 0; i < 1000; ++i) small.offer(2);
    big.merge_from(small.items(), small.seen());
    for (int item : big.items()) {
      if (item == 1) from_big += 1.0;
    }
  }
  const double share = from_big / (kTrials * 20.0);
  EXPECT_NEAR(share, 0.9, 0.02);
}

// Distributed execution (§3.2): merging w workers' local reservoirs must
// still select every stream position uniformly. Chi-square over positions,
// 99 dof, alpha=0.001 critical ~148.2.
TEST(ReservoirMerge, MergedSelectionIsUniform) {
  constexpr int kStream = 100;
  constexpr int kCapacity = 10;
  constexpr int kWorkers = 4;
  constexpr int kTrials = 20000;
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    std::vector<ReservoirSampler<int>> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back(kCapacity, 50000 + t * kWorkers + w);
    }
    // Round-robin distribution, as the engines do.
    for (int i = 0; i < kStream; ++i) workers[i % kWorkers].offer(i);
    ReservoirSampler<int> merged = std::move(workers[0]);
    for (int w = 1; w < kWorkers; ++w) {
      merged.merge_from(workers[w].items(), workers[w].seen());
    }
    EXPECT_EQ(merged.seen(), static_cast<std::uint64_t>(kStream));
    EXPECT_LE(merged.items().size(), static_cast<std::size_t>(kCapacity));
    for (int item : merged.items()) hits[item] += 1.0;
  }
  const std::vector<double> expected(
      kStream, kTrials * static_cast<double>(kCapacity) / kStream);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

}  // namespace
}  // namespace streamapprox::sampling
