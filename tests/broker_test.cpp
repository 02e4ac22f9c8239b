// Tests for the Kafka-like broker: partition logs, offsets, keyed routing,
// sealing, multi-consumer independence, segment boundaries, bulk appends and
// concurrent producers and consumers.
#include "ingest/broker.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>

namespace streamapprox::ingest {
namespace {

using engine::Record;

Record make_record(sampling::StratumId stratum, double value,
                   std::int64_t time_us = 0) {
  return Record{stratum, value, time_us};
}

constexpr std::size_t kSegment = PartitionLog::kSegmentRecords;

/// Record `i` of a numbered log: its value and time name its offset, so any
/// misplaced copy shows.
Record numbered(std::size_t i) {
  return make_record(static_cast<sampling::StratumId>(i % 7),
                     static_cast<double>(i), static_cast<std::int64_t>(i));
}

/// Reads [from, from + max_records) and checks the returned offset and
/// every record copied.
void expect_window(const PartitionLog& log, Offset from,
                   std::size_t max_records, Offset expected_next) {
  std::vector<Record> out;
  out.push_back(make_record(99, -1.0));  // read() appends after this
  EXPECT_EQ(log.read(from, max_records, out), expected_next)
      << "from " << from << " max " << max_records;
  ASSERT_EQ(out.size(), 1 + (expected_next - from));
  for (std::size_t k = 1; k < out.size(); ++k) {
    ASSERT_EQ(out[k], numbered(from + k - 1)) << "from " << from << " k " << k;
  }
}

TEST(PartitionLog, AppendAssignsSequentialOffsets) {
  PartitionLog log;
  EXPECT_EQ(log.append(make_record(0, 1.0)), 0u);
  EXPECT_EQ(log.append(make_record(0, 2.0)), 1u);
  EXPECT_EQ(log.end_offset(), 2u);
}

TEST(PartitionLog, ReadFromOffset) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) log.append(make_record(0, i));
  std::vector<Record> out;
  const auto next = log.read(4, 3, out);
  EXPECT_EQ(next, 7u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, 4.0);
  EXPECT_EQ(out[2].value, 6.0);
}

TEST(PartitionLog, ReadPastEndReturnsNothing) {
  PartitionLog log;
  log.append(make_record(0, 1.0));
  std::vector<Record> out;
  EXPECT_EQ(log.read(5, 10, out), 5u);
  EXPECT_TRUE(out.empty());
}

TEST(PartitionLog, ReadWindowDoesNotWrapOnHugeMaxRecords) {
  PartitionLog log;
  for (std::size_t i = 0; i < 10; ++i) log.append(numbered(i));
  constexpr auto kAll = std::numeric_limits<std::size_t>::max();
  expect_window(log, 5, kAll, 10);
  expect_window(log, 0, kAll, 10);
  expect_window(log, 10, kAll, 10);

  std::vector<Record> out;
  EXPECT_EQ(log.read_blocking(5, kAll, out, 0), 10u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(Consumer, PollWithHugeMaxRecordsReadsTheRest) {
  Broker broker;
  broker.create_topic("t", 1);
  Producer producer(broker, "t");
  for (std::size_t i = 0; i < 10; ++i) producer.send(numbered(i));
  producer.finish();

  Consumer consumer(broker, "t");
  std::vector<Record> buffer;
  EXPECT_EQ(consumer.poll(buffer, 4, 0), 4u);
  // Bounded, so a consumer stuck at offset 4 fails instead of hanging.
  for (int round = 0; round < 10 && !consumer.exhausted(); ++round) {
    consumer.poll(buffer, std::numeric_limits<std::size_t>::max(), 0);
  }
  EXPECT_TRUE(consumer.exhausted());
  EXPECT_EQ(consumer.consumed(), 10u);
}

TEST(PartitionLog, AppendAfterSealThrows) {
  PartitionLog log;
  log.seal();
  EXPECT_THROW(log.append(make_record(0, 1.0)), std::logic_error);
}

TEST(PartitionLog, BlockingReadWakesOnAppend) {
  PartitionLog log;
  std::vector<Record> out;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.append(make_record(0, 7.0));
  });
  const auto next = log.read_blocking(0, 10, out, 2000);
  writer.join();
  EXPECT_EQ(next, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 7.0);
}

TEST(PartitionLog, BlockingReadWakesOnSeal) {
  PartitionLog log;
  std::vector<Record> out;
  std::thread sealer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.seal();
  });
  const auto next = log.read_blocking(0, 10, out, 2000);
  sealer.join();
  EXPECT_EQ(next, 0u);
  EXPECT_TRUE(out.empty());
}

// ---- Segmented storage: reads and appends that straddle segment ends.

/// Two full segments plus 17 records.
constexpr std::size_t kStraddle = 2 * kSegment + 17;

void expect_straddling_windows(const PartitionLog& log) {
  ASSERT_EQ(log.end_offset(), kStraddle);
  expect_window(log, kSegment - 1, 2, kSegment + 1);  // one before a boundary
  expect_window(log, kSegment - 1, 1, kSegment);
  expect_window(log, kSegment - 5, kSegment + 10, 2 * kSegment + 5);  // two
  expect_window(log, 10, kSegment - 10, kSegment);  // ends on a boundary
  expect_window(log, kSegment, kSegment, 2 * kSegment);  // exactly one
  expect_window(log, 2 * kSegment, 100, kStraddle);      // the tail
  expect_window(log, 0, kStraddle, kStraddle);           // everything
  expect_window(log, kStraddle - 1, 5, kStraddle);

  engine::RecordBatch batch;
  EXPECT_EQ(log.read(kSegment - 3, 6, batch), kSegment + 3);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch.records.front(), numbered(kSegment - 3));
  EXPECT_EQ(batch.records.back(), numbered(kSegment + 2));
}

TEST(PartitionLog, SingleAppendsAcrossSegments) {
  PartitionLog log;
  for (std::size_t i = 0; i < kStraddle; ++i) {
    ASSERT_EQ(log.append(numbered(i)), i);
  }
  expect_straddling_windows(log);
}

TEST(PartitionLog, BulkAppendsAcrossSegments) {
  std::vector<Record> records(kStraddle);
  for (std::size_t i = 0; i < kStraddle; ++i) records[i] = numbered(i);
  PartitionLog log;
  // Appends that end short of a boundary, exactly on it, and one longer than
  // a segment that crosses the next; the empty one is a no-op.
  const std::array<std::size_t, 6> chunks = {kSegment - 3, 3, 10,
                                             kSegment + 1, 0, kSegment};
  std::size_t at = 0;
  for (std::size_t c = 0; at < kStraddle; ++c) {
    const std::size_t n =
        std::min(kStraddle - at, chunks[c % chunks.size()]);
    ASSERT_EQ(log.append(records.data() + at, n), at);
    at += n;
    ASSERT_EQ(log.end_offset(), at);
  }
  expect_straddling_windows(log);

  // One append that fills two segments and starts a third.
  PartitionLog whole;
  ASSERT_EQ(whole.append(records.data(), records.size()), 0u);
  expect_straddling_windows(whole);
}

TEST(PartitionLog, BulkAppendOfNothingIsANoOp) {
  PartitionLog log;
  EXPECT_EQ(log.append(nullptr, 0), 0u);
  EXPECT_EQ(log.end_offset(), 0u);
  log.append(numbered(0));
  const Record unused = numbered(1);
  EXPECT_EQ(log.append(&unused, 0), 1u);
  EXPECT_EQ(log.end_offset(), 1u);
  expect_window(log, 0, 10, 1);
  log.seal();
  EXPECT_EQ(log.append(&unused, 0), 1u);
  EXPECT_THROW(log.append(&unused, 1), std::logic_error);
}

TEST(PartitionLog, BlockingReadWakesOnBulkAppend) {
  PartitionLog log;
  const std::vector<Record> records = {numbered(0), numbered(1), numbered(2)};
  std::vector<Record> out;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.append(records.data(), records.size());
  });
  const auto next = log.read_blocking(0, 10, out, 2000);
  writer.join();
  EXPECT_EQ(next, 3u);
  EXPECT_EQ(out, records);
}

TEST(Producer, SendBatchMatchesSendLoopOnEveryPartition) {
  constexpr std::size_t kPartitions = 5;
  // Not a multiple of send_batch's chunk or of the segment size, and large
  // enough that every partition crosses a segment boundary.
  constexpr std::size_t kCount = kPartitions * kSegment + 12345;
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<sampling::StratumId> stratum(0, 99);
  std::vector<Record> records(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    records[i] = make_record(stratum(rng), static_cast<double>(i),
                             static_cast<std::int64_t>(i));
  }

  Broker broker;
  broker.create_topic("looped", kPartitions);
  broker.create_topic("batched", kPartitions);
  Producer looped(broker, "looped");
  for (const auto& record : records) looped.send(record);
  Producer batched(broker, "batched");
  batched.send_batch(records);

  for (std::size_t p = 0; p < kPartitions; ++p) {
    std::vector<Record> expected;
    std::vector<Record> actual;
    broker.topic("looped").partition(p).read(0, kCount, expected);
    broker.topic("batched").partition(p).read(0, kCount, actual);
    EXPECT_GT(expected.size(), kSegment) << "partition " << p;
    EXPECT_TRUE(expected == actual) << "partition " << p;
  }
}

TEST(Producer, SendBatchAfterFinishThrows) {
  Broker broker;
  broker.create_topic("t", 2);
  Producer producer(broker, "t");
  producer.finish();
  EXPECT_THROW(producer.send(make_record(0, 1.0)), std::logic_error);
  EXPECT_THROW(producer.send_batch({make_record(0, 1.0), make_record(1, 2.0)}),
               std::logic_error);
}

TEST(Broker, CreateTopicIdempotent) {
  Broker broker;
  auto& a = broker.create_topic("t", 4);
  auto& b = broker.create_topic("t", 4);
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(broker.create_topic("t", 8), std::invalid_argument);
}

TEST(Broker, UnknownTopicThrows) {
  Broker broker;
  EXPECT_THROW(broker.topic("missing"), std::out_of_range);
  EXPECT_FALSE(broker.has_topic("missing"));
}

TEST(Producer, RoutesByStratum) {
  Broker broker;
  broker.create_topic("t", 4);
  Producer producer(broker, "t");
  for (int i = 0; i < 100; ++i) {
    producer.send(make_record(static_cast<sampling::StratumId>(i % 8), i));
  }
  auto& topic = broker.topic("t");
  // Stratum s always lands in partition s % 4; each partition holds records
  // from exactly two strata here.
  for (std::size_t p = 0; p < 4; ++p) {
    std::vector<Record> out;
    topic.partition(p).read(0, 1000, out);
    EXPECT_EQ(out.size(), 25u);
    for (const auto& record : out) {
      EXPECT_EQ(record.stratum % 4, p);
    }
  }
  EXPECT_EQ(topic.total_records(), 100u);
}

TEST(Consumer, ConsumesEverythingOnce) {
  Broker broker;
  broker.create_topic("t", 3);
  Producer producer(broker, "t");
  for (int i = 0; i < 1000; ++i) {
    producer.send(make_record(static_cast<sampling::StratumId>(i % 5), i));
  }
  producer.finish();

  Consumer consumer(broker, "t");
  std::vector<engine::Record> buffer;
  double sum = 0.0;
  std::size_t count = 0;
  while (!consumer.exhausted()) {
    consumer.poll(buffer, 64, 10);
    for (const auto& record : buffer) {
      sum += record.value;
      ++count;
    }
  }
  EXPECT_EQ(count, 1000u);
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0);
  EXPECT_EQ(consumer.consumed(), 1000u);
}

TEST(Consumer, TwoConsumersAreIndependent) {
  Broker broker;
  broker.create_topic("t", 2);
  Producer producer(broker, "t");
  for (int i = 0; i < 100; ++i) producer.send(make_record(0, i));
  producer.finish();

  Consumer a(broker, "t");
  Consumer b(broker, "t");
  std::vector<engine::Record> buffer;
  std::size_t count_a = 0;
  std::size_t count_b = 0;
  while (!a.exhausted()) count_a += a.poll(buffer, 32, 10);
  while (!b.exhausted()) count_b += b.poll(buffer, 32, 10);
  EXPECT_EQ(count_a, 100u);
  EXPECT_EQ(count_b, 100u);  // replayable log, not a destructive queue
}

TEST(Consumer, ConcurrentProduceConsume) {
  Broker broker;
  broker.create_topic("t", 4);
  constexpr int kCount = 20000;
  std::thread producer_thread([&] {
    Producer producer(broker, "t");
    for (int i = 0; i < kCount; ++i) producer.send(make_record(0, 1.0));
    producer.finish();
  });
  Consumer consumer(broker, "t");
  std::vector<engine::Record> buffer;
  std::size_t received = 0;
  while (!consumer.exhausted()) {
    received += consumer.poll(buffer, 256, 50);
  }
  producer_thread.join();
  EXPECT_EQ(received, static_cast<std::size_t>(kCount));
}

TEST(Consumer, ConcurrentMixedSendsReachEveryConsumerInPartitionOrder) {
  constexpr std::size_t kPartitions = 3;
  constexpr std::size_t kCount = 60000;
  Broker broker;
  broker.create_topic("t", kPartitions);

  // Each record's value is its sequence number within its partition
  // (stratum % kPartitions), so a reader checks order and completeness.
  std::thread producer_thread([&] {
    Producer producer(broker, "t");
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<sampling::StratumId> stratum(0, 11);
    std::uniform_int_distribution<std::size_t> batch_size(1, 3000);
    std::array<std::uint64_t, kPartitions> next{};
    const auto next_record = [&] {
      const sampling::StratumId s = stratum(rng);
      return make_record(s, static_cast<double>(next[s % kPartitions]++));
    };
    std::vector<Record> batch;
    for (std::size_t sent = 0; sent < kCount;) {
      if (rng() % 2 == 0) {
        producer.send(next_record());
        ++sent;
        continue;
      }
      batch.clear();
      const std::size_t n = std::min(kCount - sent, batch_size(rng));
      for (std::size_t i = 0; i < n; ++i) batch.push_back(next_record());
      producer.send_batch(batch);
      sent += n;
    }
    producer.finish();
  });

  const auto consume = [&](std::array<std::uint64_t, kPartitions>& seen,
                           std::size_t& mismatches) {
    Consumer consumer(broker, "t");
    std::vector<Record> buffer;
    while (!consumer.exhausted()) {
      consumer.poll(buffer, 512, 5);
      for (const auto& record : buffer) {
        auto& expected = seen[record.stratum % kPartitions];
        if (record.value != static_cast<double>(expected)) ++mismatches;
        ++expected;
      }
    }
  };
  std::array<std::array<std::uint64_t, kPartitions>, 2> seen{};
  std::array<std::size_t, 2> mismatches{};
  std::thread first([&] { consume(seen[0], mismatches[0]); });
  std::thread second([&] { consume(seen[1], mismatches[1]); });
  producer_thread.join();
  first.join();
  second.join();

  const Topic& topic = broker.topic("t");
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(mismatches[c], 0u) << "consumer " << c;
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(seen[c][p], topic.partition(p).end_offset())
          << "consumer " << c << " partition " << p;
      total += seen[c][p];
    }
    EXPECT_EQ(total, kCount) << "consumer " << c;
  }
}

// ---- Partition-aware consumers / consumer groups (ingest-layer sharding).

TEST(Consumer, AssignedSubsetReadsOnlyItsPartitions) {
  Broker broker;
  broker.create_topic("t", 4);
  Producer producer(broker, "t");
  // Strata 0..3 route to partitions 0..3 (stratum % 4).
  for (int i = 0; i < 400; ++i) {
    producer.send(make_record(static_cast<sampling::StratumId>(i % 4), i));
  }
  producer.finish();

  Consumer consumer(broker, "t", {1, 3});
  std::vector<engine::Record> buffer;
  std::size_t count = 0;
  while (!consumer.exhausted()) {
    consumer.poll(buffer, 64, 10);
    for (const auto& record : buffer) {
      EXPECT_TRUE(record.stratum == 1 || record.stratum == 3);
      ++count;
    }
  }
  EXPECT_EQ(count, 200u);
  EXPECT_EQ(consumer.assignment(), (std::vector<std::size_t>{1, 3}));
}

TEST(Consumer, AssignmentValidation) {
  Broker broker;
  broker.create_topic("t", 2);
  EXPECT_THROW(Consumer(broker, "t", {2}), std::out_of_range);
  EXPECT_THROW(Consumer(broker, "t", {0, 0}), std::invalid_argument);
}

TEST(Consumer, EmptyAssignmentIsImmediatelyExhausted) {
  Broker broker;
  broker.create_topic("t", 2);
  Consumer consumer(broker, "t", std::vector<std::size_t>{});
  EXPECT_TRUE(consumer.exhausted());
  std::vector<engine::Record> buffer;
  EXPECT_EQ(consumer.poll(buffer, 16, 0), 0u);
  EXPECT_TRUE(buffer.empty());
}

TEST(Consumer, PartitionExhaustedTracksPerPartitionProgress) {
  Broker broker;
  auto& topic = broker.create_topic("t", 2);
  topic.partition(0).append(make_record(0, 1.0));
  topic.partition(0).seal();
  // Partition 1 stays open.
  Consumer consumer(broker, "t", {0, 1});
  std::vector<engine::Record> buffer;
  while (!consumer.partition_exhausted(0)) consumer.poll(buffer, 16, 0);
  EXPECT_TRUE(consumer.partition_exhausted(0));
  EXPECT_FALSE(consumer.partition_exhausted(1));
  EXPECT_FALSE(consumer.exhausted());
  topic.partition(1).seal();
  EXPECT_TRUE(consumer.partition_exhausted(1));
  EXPECT_TRUE(consumer.exhausted());
}

TEST(PartitionLog, BatchOutReadFillsCallerBatch) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) log.append(make_record(0, i, i * 100));
  engine::RecordBatch batch;
  const Offset next = log.read(2, 4, batch);
  EXPECT_EQ(next, 6u);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_DOUBLE_EQ(batch.records.front().value, 2.0);
}

TEST(Consumer, ReuseBufferPollIsClearedAndFilled) {
  Broker broker;
  broker.create_topic("t", 2);
  Producer producer(broker, "t");
  for (int i = 0; i < 500; ++i) {
    producer.send(make_record(static_cast<sampling::StratumId>(i % 3), i));
  }
  producer.finish();

  Consumer consumer(broker, "t");
  std::vector<Record> buffer;
  buffer.push_back(make_record(9, -1.0));  // stale content must be cleared
  std::size_t total = 0;
  while (!consumer.exhausted()) {
    const std::size_t fetched = consumer.poll(buffer, 64, 10);
    EXPECT_EQ(fetched, buffer.size());
    for (const auto& record : buffer) EXPECT_LT(record.stratum, 3u);
    total += fetched;
  }
  EXPECT_EQ(total, 500u);
}

TEST(Consumer, BatchOutPollReadsAssignedPartitions) {
  Broker broker;
  broker.create_topic("t", 3);
  Producer producer(broker, "t");
  for (int i = 0; i < 90; ++i) {
    producer.send(make_record(static_cast<sampling::StratumId>(i % 3), i));
  }
  producer.finish();

  // Single-partition assignment: only that partition's records.
  Consumer single(broker, "t", {1});
  engine::RecordBatch batch;
  single.poll(batch, 64, 10);
  EXPECT_FALSE(batch.empty());
  for (const auto& record : batch.records) EXPECT_EQ(record.stratum % 3, 1u);

  // Multi-partition assignment: the refill resets the batch first.
  batch.watermark_us = 7;
  Consumer all(broker, "t");
  all.poll(batch, 64, 10);
  EXPECT_FALSE(batch.empty());
  EXPECT_EQ(batch.watermark_us, engine::kNoWatermark);
}

}  // namespace
}  // namespace streamapprox::ingest
