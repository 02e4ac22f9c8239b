// The pooled morsel type of the batched data plane: metadata defaults,
// reset-keeps-capacity recycling, pool reuse accounting, and the slide run
// segmentation pinned against per-record division.
#include "engine/record_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace streamapprox::engine {
namespace {

using Runs = std::vector<std::pair<std::int64_t, std::size_t>>;

constexpr std::int64_t kMinTime = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxTime = std::numeric_limits<std::int64_t>::max();

std::vector<Record> records_at(const std::vector<std::int64_t>& times) {
  std::vector<Record> records;
  records.reserve(times.size());
  for (const std::int64_t t : times) records.push_back({0, 1.0, t});
  return records;
}

// The reference: one truncating division per record, a new run wherever the
// quotient changes.
Runs division_runs(const std::vector<Record>& records, std::int64_t slide_us) {
  Runs runs;
  for (const Record& record : records) {
    const std::int64_t slide = record.event_time_us / slide_us;
    if (!runs.empty() && runs.back().first == slide) {
      ++runs.back().second;
    } else {
      runs.emplace_back(slide, 1);
    }
  }
  return runs;
}

Runs segmented_runs(const std::vector<Record>& records,
                    std::int64_t slide_us) {
  Runs runs;
  const Record* next = records.data();
  for_each_slide_run(records.data(), records.size(), slide_us,
                     [&](std::int64_t slide, const Record* run, std::size_t n) {
                       EXPECT_EQ(run, next) << "runs must tile the batch";
                       next = run + n;
                       runs.emplace_back(slide, n);
                     });
  EXPECT_EQ(next, records.data() + records.size());
  return runs;
}

void expect_matches_division(const std::vector<std::int64_t>& times,
                             std::int64_t slide_us) {
  const auto records = records_at(times);
  EXPECT_EQ(segmented_runs(records, slide_us),
            division_runs(records, slide_us))
      << "slide_us=" << slide_us;
}

TEST(RecordBatch, DefaultsAndReset) {
  RecordBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.watermark_us, kNoWatermark);

  batch.records.push_back({1, 2.0, 3});
  batch.watermark_us = 5;
  EXPECT_EQ(batch.size(), 1u);

  const std::size_t capacity = batch.records.capacity();
  batch.reset();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.watermark_us, kNoWatermark);
  EXPECT_EQ(batch.records.capacity(), capacity);
}

TEST(RecordBatch, ResetClearsMorselIdentity) {
  // The work-stealing scheduler keys its per-channel completion tracking on
  // channel/seq/heartbeat; a recycled batch must never leak a previous
  // morsel's identity into the next emission.
  RecordBatch batch;
  EXPECT_EQ(batch.channel, RecordBatch::kNoChannel);
  EXPECT_EQ(batch.seq, 0u);
  EXPECT_FALSE(batch.heartbeat);

  batch.channel = 7;
  batch.seq = 42;
  batch.heartbeat = true;
  batch.reset();
  EXPECT_EQ(batch.channel, RecordBatch::kNoChannel);
  EXPECT_EQ(batch.seq, 0u);
  EXPECT_FALSE(batch.heartbeat);
}

TEST(SlideRuns, RandomSortedAndUnsortedTimesMatchDivision) {
  Rng rng(0x51de);
  for (const std::int64_t slide_us : {1, 7, 1000, 50'000}) {
    // Unsorted: times scattered over ±20 slides, so both signs and runs of
    // every length occur.
    std::vector<std::int64_t> times;
    for (int i = 0; i < 5000; ++i) {
      const auto reach = static_cast<std::uint64_t>(40 * slide_us);
      times.push_back(static_cast<std::int64_t>(rng.uniform_int(reach)) -
                      20 * slide_us);
    }
    expect_matches_division(times, slide_us);
    std::sort(times.begin(), times.end());
    expect_matches_division(times, slide_us);
  }
}

TEST(SlideRuns, OneMicrosecondSlides) {
  // slide_us = 1: every distinct time is its own slide, repeats share one.
  expect_matches_division({-3, -3, -2, -1, 0, 0, 0, 1, 1, 5, 4, 4, 7}, 1);
  EXPECT_EQ(segmented_runs(records_at({0, 0, 0, 1, 1, -1}), 1),
            (Runs{{0, 3}, {1, 2}, {-1, 1}}));
}

TEST(SlideRuns, NegativeTimesTruncateTowardZero) {
  // Truncating division puts all of (−w, w) in slide 0: 2w − 1 times.
  std::vector<std::int64_t> times;
  for (std::int64_t t = -25; t <= 25; ++t) times.push_back(t);
  expect_matches_division(times, 10);
  EXPECT_EQ(segmented_runs(records_at(times), 10),
            (Runs{{-2, 6}, {-1, 10}, {0, 19}, {1, 10}, {2, 6}}));
  // Unsorted crossings of zero stay in one run while inside (−w, w).
  EXPECT_EQ(segmented_runs(records_at({-9, 9, 0, -1, 10, -10}), 10),
            (Runs{{0, 4}, {1, 1}, {-1, 1}}));
}

TEST(SlideRuns, TimesNearTheInt64LimitsDoNotOverflow) {
  // The bounds of the first and last slides of the int64 range sit within
  // slide_us of INT64_MIN / INT64_MAX, where lo − (w − 1) and hi + (w − 1)
  // would overflow.
  for (const std::int64_t slide_us :
       {std::int64_t{1}, std::int64_t{3}, std::int64_t{1000},
        kMaxTime / 3, kMaxTime / 2, kMaxTime - 1, kMaxTime}) {
    std::vector<std::int64_t> times;
    for (std::int64_t d = 0; d < 5; ++d) {
      times.push_back(kMinTime + d);
      times.push_back(kMaxTime - d);
    }
    for (const std::int64_t t :
         {kMinTime + slide_us - 1, kMinTime + slide_us,
          kMaxTime - slide_us + 1, kMaxTime - slide_us, std::int64_t{0}}) {
      times.push_back(t);
    }
    expect_matches_division(times, slide_us);
    std::sort(times.begin(), times.end());
    expect_matches_division(times, slide_us);
    std::reverse(times.begin(), times.end());
    expect_matches_division(times, slide_us);
  }
}

TEST(BatchPool, RecyclesInsteadOfAllocating) {
  BatchPool pool(/*reserve_records=*/16);
  auto first = pool.acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_GE(first->records.capacity(), 16u);
  EXPECT_EQ(pool.allocated(), 1u);

  first->records.push_back({7, 1.0, 42});
  first->watermark_us = 99;
  RecordBatch* raw = first.get();
  pool.release(std::move(first));
  EXPECT_EQ(pool.pooled(), 1u);

  // The same batch comes back, reset but with its capacity intact.
  auto second = pool.acquire();
  EXPECT_EQ(second.get(), raw);
  EXPECT_TRUE(second->empty());
  EXPECT_EQ(second->watermark_us, kNoWatermark);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BatchPool, SteadyStateAllocationIsBounded) {
  BatchPool pool(8);
  // Two batches in flight at any moment, many acquire/release cycles: the
  // allocation high-water mark must stay at 2.
  for (int round = 0; round < 100; ++round) {
    auto a = pool.acquire();
    auto b = pool.acquire();
    a->records.push_back({0, 0.0, round});
    pool.release(std::move(a));
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(BatchPool, ReleaseNullIsIgnored) {
  BatchPool pool;
  pool.release(nullptr);
  EXPECT_EQ(pool.pooled(), 0u);
}

}  // namespace
}  // namespace streamapprox::engine
