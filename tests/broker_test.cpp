// Tests for the Kafka-like broker: partition logs, offsets, keyed routing,
// sealing, multi-consumer independence.
#include "ingest/broker.h"

#include <gtest/gtest.h>

#include <thread>

namespace streamapprox::ingest {
namespace {

using engine::Record;

Record make_record(sampling::StratumId stratum, double value,
                   std::int64_t time_us = 0) {
  return Record{stratum, value, time_us};
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
  double sum = 0.0;
  std::size_t count = 0;
  while (!consumer.exhausted()) {
    for (const auto& record : consumer.poll(64, 10)) {
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
  std::size_t count_a = 0;
  std::size_t count_b = 0;
  while (!a.exhausted()) count_a += a.poll(32, 10).size();
  while (!b.exhausted()) count_b += b.poll(32, 10).size();
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
  std::size_t received = 0;
  while (!consumer.exhausted()) {
    received += consumer.poll(256, 50).size();
  }
  producer_thread.join();
  EXPECT_EQ(received, static_cast<std::size_t>(kCount));
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
  std::size_t count = 0;
  while (!consumer.exhausted()) {
    for (const auto& record : consumer.poll(64, 10)) {
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
  EXPECT_TRUE(consumer.poll(16, 0).empty());
}

TEST(Consumer, PartitionExhaustedTracksPerPartitionProgress) {
  Broker broker;
  auto& topic = broker.create_topic("t", 2);
  topic.partition(0).append(make_record(0, 1.0));
  topic.partition(0).seal();
  // Partition 1 stays open.
  Consumer consumer(broker, "t", {0, 1});
  while (!consumer.partition_exhausted(0)) consumer.poll(16, 0);
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
