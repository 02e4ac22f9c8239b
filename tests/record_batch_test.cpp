// The pooled morsel type of the batched data plane: metadata defaults,
// reset-keeps-capacity recycling, and pool reuse accounting.
#include "engine/record_batch.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace streamapprox::engine {
namespace {

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
