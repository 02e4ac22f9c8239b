// Tests for OASRS (paper Algorithm 3): per-stratum fairness, Eq. 1 weights,
// on-the-fly stratum discovery, the one-interval lifetime, the equal budget
// split, same-stratum run offers and their counters, allocation of taken
// samples, distributed merge.
#include "sampling/oasrs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/record.h"
#include "estimation/estimators.h"

namespace streamapprox::sampling {
namespace {

using streamapprox::engine::Record;

Record make_record(StratumId stratum, double value) {
  return Record{stratum, value, 0};
}

OasrsConfig fixed_capacity_config(std::size_t capacity, std::uint64_t seed) {
  OasrsConfig config;
  config.total_budget = 0;
  config.per_stratum_capacity = capacity;
  config.seed = seed;
  return config;
}

TEST(Oasrs, DiscoversStrataOnTheFly) {
  auto sampler = make_oasrs<Record>(fixed_capacity_config(4, 1));
  sampler.offer(make_record(7, 1.0));
  sampler.offer(make_record(3, 2.0));
  sampler.offer(make_record(7, 3.0));
  EXPECT_EQ(sampler.stratum_count(), 2u);
  auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 2u);
  // First-seen order.
  EXPECT_EQ(sample.strata[0].stratum, 7u);
  EXPECT_EQ(sample.strata[1].stratum, 3u);
}

TEST(Oasrs, NoSubStreamOverlooked) {
  // One giant stratum and one tiny one: the tiny one must still be fully
  // represented — the core property SRS lacks (§3.2).
  auto sampler = make_oasrs<Record>(fixed_capacity_config(8, 2));
  for (int i = 0; i < 100000; ++i) sampler.offer(make_record(0, 1.0));
  for (int i = 0; i < 3; ++i) sampler.offer(make_record(1, 100.0));
  auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 2u);
  const auto& tiny = sample.strata[1];
  EXPECT_EQ(tiny.stratum, 1u);
  EXPECT_EQ(tiny.items.size(), 3u);     // all of them
  EXPECT_DOUBLE_EQ(tiny.weight, 1.0);   // each represents itself

  // A budget below the stratum count still leaves every stratum one slot.
  OasrsConfig config;
  config.total_budget = 2;
  config.seed = 2;
  auto scarce = make_oasrs<Record>(config);
  for (int i = 0; i < 50; ++i) {
    scarce.offer(make_record(static_cast<StratumId>(i % 5), 1.0));
  }
  const auto sampled = scarce.take();
  ASSERT_EQ(sampled.strata.size(), 5u);
  for (const auto& stratum : sampled.strata) {
    EXPECT_EQ(stratum.items.size(), 1u) << "stratum " << stratum.stratum;
    EXPECT_DOUBLE_EQ(stratum.weight, 10.0);
  }
}

TEST(Oasrs, WeightsFollowEquationOne) {
  auto sampler = make_oasrs<Record>(fixed_capacity_config(10, 3));
  for (int i = 0; i < 50; ++i) sampler.offer(make_record(0, 1.0));   // C>N
  for (int i = 0; i < 5; ++i) sampler.offer(make_record(1, 1.0));    // C<=N
  auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 2u);
  EXPECT_DOUBLE_EQ(sample.strata[0].weight, 5.0);
  EXPECT_EQ(sample.strata[0].seen, 50u);
  EXPECT_EQ(sample.strata[0].items.size(), 10u);
  EXPECT_DOUBLE_EQ(sample.strata[1].weight, 1.0);
  EXPECT_EQ(sample.strata[1].items.size(), 5u);
}

TEST(Oasrs, TakeResetsForNextInterval) {
  auto sampler = make_oasrs<Record>(fixed_capacity_config(4, 4));
  for (int i = 0; i < 10; ++i) sampler.offer(make_record(0, 1.0));
  auto first = sampler.take();
  EXPECT_EQ(first.strata.size(), 1u);
  EXPECT_EQ(first.strata[0].seen, 10u);
  // New interval: counters restart; stratum yields nothing until data.
  auto empty = sampler.take();
  EXPECT_TRUE(empty.strata.empty());
  sampler.offer(make_record(0, 2.0));
  auto second = sampler.take();
  ASSERT_EQ(second.strata.size(), 1u);
  EXPECT_EQ(second.strata[0].seen, 1u);
  EXPECT_DOUBLE_EQ(second.strata[0].weight, 1.0);
}

TEST(Oasrs, TotalBudgetSplitsEqually) {
  OasrsConfig config;
  config.total_budget = 30;
  config.seed = 6;
  auto sampler = make_oasrs<Record>(config);
  // Each discovery re-splits the budget: once the first three records have
  // arrived, every stratum's share is budget/3 = 10, in every interval.
  for (int i = 0; i < 1000; ++i) {
    sampler.offer(make_record(0, 1.0));
    sampler.offer(make_record(1, 1.0));
    sampler.offer(make_record(2, 1.0));
  }
  auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 3u);
  for (int i = 0; i < 1000; ++i) {
    sampler.offer(make_record(0, 1.0));
    sampler.offer(make_record(1, 1.0));
    sampler.offer(make_record(2, 1.0));
  }
  sample = sampler.take();
  for (const auto& stratum : sample.strata) {
    EXPECT_EQ(stratum.items.size(), 10u) << "stratum " << stratum.stratum;
    EXPECT_DOUBLE_EQ(stratum.weight, 100.0);
  }
}

TEST(Oasrs, SetTotalBudgetTakesEffectNextInterval) {
  OasrsConfig config;
  config.total_budget = 10;
  config.seed = 7;
  auto sampler = make_oasrs<Record>(config);
  for (int i = 0; i < 100; ++i) sampler.offer(make_record(0, 1.0));
  sampler.take();
  sampler.set_total_budget(40);
  for (int i = 0; i < 100; ++i) sampler.offer(make_record(0, 1.0));
  auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 1u);
  EXPECT_EQ(sample.strata[0].items.size(), 40u);
}

TEST(Oasrs, InterleavedStrataSampleIndependently) {
  auto sampler = make_oasrs<Record>(fixed_capacity_config(50, 8));
  streamapprox::Rng rng(8);
  std::unordered_map<StratumId, int> sent;
  for (int i = 0; i < 30000; ++i) {
    const auto stratum = static_cast<StratumId>(rng.uniform_int(5));
    sampler.offer(make_record(stratum, static_cast<double>(stratum)));
    ++sent[stratum];
  }
  auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 5u);
  for (const auto& stratum : sample.strata) {
    EXPECT_EQ(stratum.items.size(), 50u);
    EXPECT_EQ(stratum.seen,
              static_cast<std::uint64_t>(sent[stratum.stratum]));
    // Every sampled item belongs to the right stratum.
    for (const auto& record : stratum.items) {
      EXPECT_EQ(record.stratum, stratum.stratum);
    }
  }
}

// A sampler lives one interval: take() leaves no strata behind, so a second
// interval over the same records splits the budget exactly as a fresh
// sampler does, rare stratum included.
TEST(Oasrs, SecondIntervalMatchesAFreshSampler) {
  std::vector<Record> records;
  for (int i = 0; i < 2000; ++i) {
    const int bucket = i % 100;  // 80 / 19 / 1 % skew
    records.push_back(make_record(bucket < 80 ? 0 : bucket < 99 ? 1 : 2,
                                  static_cast<double>(i)));
  }
  OasrsConfig config;
  config.total_budget = 100;
  config.seed = 31;
  auto reused = make_oasrs<Record>(config);
  reused.offer_batch(records);
  reused.take();
  EXPECT_EQ(reused.stratum_count(), 0u);
  reused.offer_batch(records);
  const auto second = reused.take();
  EXPECT_EQ(reused.stratum_count(), 0u);

  config.seed = 32;
  auto fresh = make_oasrs<Record>(config);
  fresh.offer_batch(records);
  const auto first = fresh.take();
  ASSERT_EQ(second.strata.size(), 3u);
  ASSERT_EQ(first.strata.size(), second.strata.size());
  for (std::size_t i = 0; i < first.strata.size(); ++i) {
    EXPECT_EQ(second.strata[i].stratum, first.strata[i].stratum);
    EXPECT_EQ(second.strata[i].seen, first.strata[i].seen);
    EXPECT_EQ(second.strata[i].items.size(), first.strata[i].items.size())
        << "stratum " << first.strata[i].stratum;
    EXPECT_DOUBLE_EQ(second.strata[i].weight, first.strata[i].weight);
  }
  EXPECT_EQ(second.strata[2].items.size(), 20u);  // the 1 % stratum, whole
}

TEST(Oasrs, MergeCombinesWorkers) {
  auto a = make_oasrs<Record>(fixed_capacity_config(10, 10));
  auto b = make_oasrs<Record>(fixed_capacity_config(10, 11));
  for (int i = 0; i < 100; ++i) a.offer(make_record(0, 1.0));
  for (int i = 0; i < 60; ++i) b.offer(make_record(0, 2.0));
  for (int i = 0; i < 7; ++i) b.offer(make_record(1, 3.0));
  a.merge(b);
  auto sample = a.take();
  ASSERT_EQ(sample.strata.size(), 2u);
  EXPECT_EQ(sample.strata[0].seen, 160u);
  EXPECT_EQ(sample.strata[0].items.size(), 10u);
  EXPECT_EQ(sample.strata[1].seen, 7u);
  EXPECT_EQ(sample.strata[1].items.size(), 7u);
}

TEST(Oasrs, WorksOnUnboundedStreamsWithoutTake) {
  // §3.2: "OASRS not only works for a concerned time interval, but also
  // works with unbounded data streams": without interval resets the
  // reservoirs and counters stay coherent over the whole stream, and one
  // take() after it gives a valid weighted sample.
  // 512 samples/stratum over U(0,100): relative SE of the weighted sum is
  // ~0.64%, so the 5% band is ~8 sigma.
  auto sampler = make_oasrs<Record>(fixed_capacity_config(512, 20));
  streamapprox::Rng rng(20);
  double exact_sum = 0.0;
  for (int i = 0; i < 500000; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    exact_sum += v;
    sampler.offer(make_record(static_cast<StratumId>(i % 4), v));
  }
  const auto sample = sampler.take();
  ASSERT_EQ(sample.strata.size(), 4u);
  double approx_sum = 0.0;
  for (const auto& stratum : sample.strata) {
    EXPECT_EQ(stratum.items.size(), 512u);
    EXPECT_EQ(stratum.seen, 125000u);
    double sum = 0.0;
    for (const auto& record : stratum.items) sum += record.value;
    approx_sum += sum * stratum.weight;
  }
  EXPECT_NEAR(approx_sum, exact_sum, exact_sum * 0.05);
}

TEST(Oasrs, SampledFractionApproximatesBudget) {
  // With budget = f * interval items and equal-rate strata, the sampled
  // fraction should come out near f.
  OasrsConfig config;
  config.total_budget = 3000;  // f = 0.3 of 10000 items
  config.seed = 12;
  auto sampler = make_oasrs<Record>(config);
  for (int i = 0; i < 10000; ++i) {
    sampler.offer(make_record(static_cast<StratumId>(i % 3), 1.0));
  }
  auto sample = sampler.take();
  EXPECT_NEAR(static_cast<double>(sample.total_sampled()), 3000.0, 3.0);
}

// ---- Distributed merge (paper §3.2 "Distributed execution"): w workers
// sample disjoint sub-streams locally; merging concatenates the per-stratum
// statistics with no synchronisation during sampling.

/// One deterministic pseudo-random stream of `n` records over `strata`
/// strata with per-stratum value offsets (so per-stratum means differ).
std::vector<Record> merge_stream(std::size_t n, std::uint32_t strata,
                                 std::uint64_t seed) {
  streamapprox::Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto stratum = static_cast<StratumId>(rng.uniform_int(strata));
    const double value = 100.0 * (stratum + 1) + rng.uniform(-5.0, 5.0);
    records.push_back(Record{stratum, value, static_cast<std::int64_t>(i)});
  }
  return records;
}

TEST(OasrsMerge, WWaySplitPreservesPerStratumSeenCounts) {
  constexpr std::size_t kWorkers = 4;
  const auto records = merge_stream(40000, 6, 2024);

  // Ground truth: a single sampler over the whole stream.
  OasrsConfig single_config;
  single_config.total_budget = 1200;
  single_config.seed = 5;
  auto single = make_oasrs<Record>(single_config);
  for (const auto& r : records) single.offer(r);
  auto single_sample = single.take();

  // w workers, records routed stratum -> worker (the broker's partition
  // routing): every stratum lives wholly in one worker.
  OasrsConfig worker_config;
  worker_config.total_budget = 1200 / kWorkers;
  std::vector<decltype(make_oasrs<Record>(worker_config))> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    worker_config.seed = 100 + w;
    workers.push_back(make_oasrs<Record>(worker_config));
  }
  for (const auto& r : records) workers[r.stratum % kWorkers].offer(r);

  OasrsConfig merged_config;
  merged_config.total_budget = 1200;
  merged_config.seed = 77;
  auto merged = make_oasrs<Record>(merged_config);
  for (auto& worker : workers) merged.merge(worker);
  auto merged_sample = merged.take();

  ASSERT_EQ(merged_sample.strata.size(), single_sample.strata.size());
  std::unordered_map<StratumId, std::uint64_t> single_seen;
  for (const auto& s : single_sample.strata) single_seen[s.stratum] = s.seen;
  for (const auto& s : merged_sample.strata) {
    ASSERT_TRUE(single_seen.contains(s.stratum));
    EXPECT_EQ(s.seen, single_seen[s.stratum])
        << "stratum " << s.stratum;
    EXPECT_GT(s.items.size(), 0u);
    EXPECT_LE(s.items.size(), s.seen);
    // Eq. 1 weight invariant survives the merge.
    EXPECT_DOUBLE_EQ(
        s.weight,
        s.seen > s.items.size()
            ? static_cast<double>(s.seen) / static_cast<double>(s.items.size())
            : 1.0);
  }
  EXPECT_EQ(merged_sample.total_seen(), records.size());
}

TEST(OasrsMerge, SameStratumReservoirsCombineCounts) {
  // Two workers that saw the SAME stratum (overlapping split): merged seen
  // adds up and the sample stays within capacity.
  OasrsConfig config = fixed_capacity_config(32, 3);
  auto a = make_oasrs<Record>(config);
  config.seed = 4;
  auto b = make_oasrs<Record>(config);
  for (int i = 0; i < 500; ++i) a.offer(make_record(1, 1.0));
  for (int i = 0; i < 300; ++i) b.offer(make_record(1, 2.0));
  a.merge(b);
  auto sample = a.take();
  ASSERT_EQ(sample.strata.size(), 1u);
  EXPECT_EQ(sample.strata[0].seen, 800u);
  EXPECT_LE(sample.strata[0].items.size(), 32u);
  // Items from both sources should be present (binomial slot allocation
  // makes all-one-source astronomically unlikely at these counts).
  bool from_a = false;
  bool from_b = false;
  for (const auto& r : sample.strata[0].items) {
    from_a = from_a || r.value == 1.0;
    from_b = from_b || r.value == 2.0;
  }
  EXPECT_TRUE(from_a);
  EXPECT_TRUE(from_b);
}

TEST(OasrsMerge, MergedEstimateIsUnbiased) {
  // Across many seeds, the merged w-way estimate of the stream MEAN must
  // agree with the single-sampler estimate and with the exact mean.
  constexpr std::size_t kWorkers = 4;
  constexpr int kTrials = 30;
  const auto records = merge_stream(20000, 5, 11);
  double exact = 0.0;
  for (const auto& r : records) exact += r.value;
  exact /= static_cast<double>(records.size());

  double merged_mean_sum = 0.0;
  double single_mean_sum = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    OasrsConfig config;
    config.total_budget = 500;
    config.seed = 1000 + trial;
    auto single = make_oasrs<Record>(config);
    for (const auto& r : records) single.offer(r);
    single_mean_sum +=
        estimation::estimate_mean(
            estimation::summarize(single.take(),
                                  streamapprox::engine::RecordValue{}))
            .estimate;

    std::vector<decltype(make_oasrs<Record>(config))> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      OasrsConfig worker_config;
      worker_config.total_budget = 500 / kWorkers;
      worker_config.seed = 9000 + trial * kWorkers + w;
      workers.push_back(make_oasrs<Record>(worker_config));
    }
    for (const auto& r : records) workers[r.stratum % kWorkers].offer(r);
    OasrsConfig merged_config;
    merged_config.total_budget = 500;
    merged_config.seed = 313 + trial;
    auto merged = make_oasrs<Record>(merged_config);
    for (auto& worker : workers) merged.merge(worker);
    merged_mean_sum +=
        estimation::estimate_mean(
            estimation::summarize(merged.take(),
                                  streamapprox::engine::RecordValue{}))
            .estimate;
  }
  const double merged_mean = merged_mean_sum / kTrials;
  const double single_mean = single_mean_sum / kTrials;
  // Strata means span 100..500; a biased merge would miss by tens.
  EXPECT_NEAR(merged_mean, exact, 2.0);
  EXPECT_NEAR(merged_mean, single_mean, 2.0);
}

TEST(Oasrs, OfferBatchMatchesPerRecordOffer) {
  // offer_batch is the same algorithm with a cached reservoir lookup: with
  // identical seeds the two paths must produce bit-identical samples.
  OasrsConfig config;
  config.total_budget = 64;
  config.seed = 77;
  auto one_by_one = make_oasrs<Record>(config);
  auto batched = make_oasrs<Record>(config);

  std::vector<Record> records;
  for (int i = 0; i < 20000; ++i) {
    // Runs of same-stratum records with occasional switches, including a
    // mid-batch new-stratum discovery.
    records.push_back(make_record(static_cast<StratumId>((i / 37) % 11),
                                  static_cast<double>(i)));
  }
  for (const auto& record : records) one_by_one.offer(record);
  batched.offer_batch(records);

  const auto a = one_by_one.take();
  const auto b = batched.take();
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t s = 0; s < a.strata.size(); ++s) {
    EXPECT_EQ(a.strata[s].stratum, b.strata[s].stratum);
    EXPECT_EQ(a.strata[s].seen, b.strata[s].seen);
    EXPECT_DOUBLE_EQ(a.strata[s].weight, b.strata[s].weight);
    ASSERT_EQ(a.strata[s].items.size(), b.strata[s].items.size());
    for (std::size_t i = 0; i < a.strata[s].items.size(); ++i) {
      EXPECT_EQ(a.strata[s].items[i], b.strata[s].items[i]);
    }
  }
}

TEST(Oasrs, ManyStrataDiscoveryKeepsBudgetInvariant) {
  // The O(S) discovery fast path (skip the re-shrink pass when no reservoir
  // exceeds the new share) must preserve the budget invariant: the total
  // sample never exceeds total_budget no matter how many strata appear.
  OasrsConfig config;
  config.total_budget = 1000;
  config.seed = 5;
  auto sampler = make_oasrs<Record>(config);
  constexpr std::size_t kStrata = 500;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t s = 0; s < kStrata; ++s) {
      for (int i = 0; i < 4; ++i) {
        sampler.offer(make_record(static_cast<StratumId>(s), 1.0));
      }
    }
    EXPECT_EQ(sampler.stratum_count(), kStrata);
    auto sample = sampler.take();
    EXPECT_EQ(sample.strata.size(), kStrata);
    EXPECT_LE(sample.total_sampled(), config.total_budget);
  }
}

// The taken stratum sample is the reservoir's own vector, handed on: at a
// budget of 2^26 (the feedback cap) one record must not carry a 2^26-slot
// allocation with it, whether taken directly or after the slide-close merge
// into an empty sampler.
TEST(Oasrs, TakenSampleAllocatesOnlyWhatItHolds) {
  constexpr std::size_t kBudget = std::size_t{1} << 26;
  OasrsConfig config;
  config.total_budget = kBudget;
  auto sampler = make_oasrs<Record>(config);
  sampler.offer(make_record(3, 1.0));
  auto part = make_oasrs<Record>(config);
  part.offer(make_record(3, 2.0));
  auto merged = make_oasrs<Record>(config);
  merged.merge(part);

  const auto taken = sampler.take();
  ASSERT_EQ(taken.strata.size(), 1u);
  ASSERT_EQ(taken.strata[0].items.size(), 1u);
  EXPECT_LT(taken.strata[0].items.capacity(), kBudget);
  const auto closed = merged.take();
  ASSERT_EQ(closed.strata.size(), 1u);
  ASSERT_EQ(closed.strata[0].items.size(), 1u);
  EXPECT_LT(closed.strata[0].items.capacity(), kBudget);
}

/// 4 strata in blocks of 64 records: the run shape the exchange produces.
std::vector<Record> stratified_stream(int n) {
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    records.push_back(Record{static_cast<StratumId>((i / 64) % 4),
                             static_cast<double>(i),
                             static_cast<std::int64_t>(i) * 100});
  }
  return records;
}

// OASRS bookkeeping exactness: every per-stratum C_i, weight, sample SIZE
// (min(capacity, C_i), whatever the seed), stratum discovery order, and the
// total count equal those of separately seeded per-stratum reservoirs that
// re-split the budget on discovery the way OASRS does. Only sample
// MEMBERSHIP may differ.
TEST(Oasrs, CountersMatchPerStratumReservoirs) {
  constexpr std::size_t kBudget = 128;
  const auto records = stratified_stream(20000);
  OasrsConfig config;
  config.total_budget = kBudget;
  config.seed = 42;
  auto sampler = make_oasrs<Record>(config);
  sampler.offer_batch(records);

  std::vector<StratumId> order;
  std::unordered_map<StratumId, ReservoirSampler<Record>> reference;
  for (const auto& record : records) {
    auto it = reference.find(record.stratum);
    if (it == reference.end()) {
      order.push_back(record.stratum);
      const std::size_t share = kBudget / order.size();
      for (auto& [id, reservoir] : reference) reservoir.shrink_capacity(share);
      it = reference
               .emplace(record.stratum,
                        ReservoirSampler<Record>(share, order.size()))
               .first;
    }
    it->second.offer(record);
  }

  EXPECT_EQ(sampler.stratum_count(), order.size());
  const auto a = sampler.take();
  EXPECT_EQ(a.total_seen(), 20000u);
  ASSERT_EQ(a.strata.size(), order.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    const auto& expected = reference.at(order[i]);
    EXPECT_EQ(a.strata[i].stratum, order[i]);
    EXPECT_EQ(a.strata[i].seen, expected.seen());
    EXPECT_EQ(a.strata[i].items.size(), expected.items().size());
    EXPECT_DOUBLE_EQ(a.strata[i].weight, expected.weight());
  }
}

// The known-stratum offer_run path (what offer_batch feeds with each
// maximal same-stratum run) is bit-identical to per-record offer(): same
// reservoirs, same RNG order. Its counters account for every record.
TEST(Oasrs, OfferRunMatchesPerRecordOffer) {
  const auto records = stratified_stream(8000);
  OasrsConfig config;
  config.total_budget = 96;
  config.seed = 9;
  auto per_record = make_oasrs<Record>(config);
  auto via_runs = make_oasrs<Record>(config);
  for (const auto& r : records) per_record.offer(r);
  for (std::size_t i = 0; i < records.size(); i += 64) {
    via_runs.offer_run(records[i].stratum, records.data() + i, 64);
  }
  EXPECT_GT(via_runs.kernel_stats().bulk_runs, 0u);
  EXPECT_EQ(via_runs.kernel_stats().accepted +
                via_runs.kernel_stats().skipped,
            8000u);
  const auto a = per_record.take();
  const auto b = via_runs.take();
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(a.strata[i].stratum, b.strata[i].stratum);
    EXPECT_EQ(a.strata[i].seen, b.strata[i].seen);
    EXPECT_EQ(a.strata[i].items, b.strata[i].items);
  }
}

}  // namespace
}  // namespace streamapprox::sampling
