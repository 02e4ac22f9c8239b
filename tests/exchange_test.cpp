// The repartitioning exchange: stratum-affine routing, exactly-once
// delivery with workers decoupled from partitions, watermark preservation
// across the repartition hop, and lossless backpressure.
#include "ingest/exchange.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "core/watermark.h"
#include "ingest/broker.h"

namespace streamapprox::ingest {
namespace {

std::vector<engine::Record> ordered_records(std::size_t count,
                                            std::size_t strata) {
  std::vector<engine::Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    engine::Record record;
    record.stratum = static_cast<sampling::StratumId>(i % strata);
    record.value = static_cast<double>(i);
    record.event_time_us = static_cast<std::int64_t>(i) * 100;
    records.push_back(record);
  }
  return records;
}

struct Drained {
  /// All records per channel, in arrival order.
  std::vector<std::vector<engine::Record>> records;
  /// The watermark in force when each record arrived on its channel.
  std::vector<std::vector<std::int64_t>> watermark_at_arrival;
  /// Last watermark observed per channel.
  std::vector<std::int64_t> final_watermark;
};

/// Runs the exchange over a prepared topic and drains every channel from one
/// consumer thread (SPSC holds: one consumer per ring).
Drained run_and_drain(Broker& broker, const std::string& topic,
                      ExchangeConfig config,
                      std::int64_t consumer_delay_us = 0) {
  Exchange exchange(broker, topic, config);
  std::thread runner([&] { exchange.run(); });

  Drained out;
  out.records.resize(config.workers);
  out.watermark_at_arrival.resize(config.workers);
  out.final_watermark.assign(config.workers, engine::kNoWatermark);
  for (;;) {
    bool all_drained = true;
    bool any = false;
    for (std::size_t w = 0; w < config.workers; ++w) {
      while (auto batch = exchange.pop(w)) {
        any = true;
        for (const auto& record : batch->records) {
          out.records[w].push_back(record);
          out.watermark_at_arrival[w].push_back(out.final_watermark[w]);
        }
        out.final_watermark[w] = batch->watermark_us;
        exchange.recycle(std::move(batch));
        if (consumer_delay_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(consumer_delay_us));
        }
      }
      all_drained = all_drained && exchange.drained(w);
    }
    if (all_drained) break;
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  runner.join();
  return out;
}

TEST(Exchange, StratumAffineExactlyOnceDelivery) {
  Broker broker;
  broker.create_topic("t", 2);
  const auto records = ordered_records(10'000, 16);
  Producer producer(broker, "t");
  producer.send_batch(records);
  producer.finish();

  ExchangeConfig config;
  config.workers = 4;
  config.batch_size = 256;
  const auto drained = run_and_drain(broker, "t", config);

  std::size_t delivered = 0;
  for (std::size_t w = 0; w < config.workers; ++w) {
    delivered += drained.records[w].size();
    for (const auto& record : drained.records[w]) {
      // Every record lands on the channel its stratum hashes to.
      EXPECT_EQ(Exchange::route(record.stratum, config.workers), w);
    }
  }
  EXPECT_EQ(delivered, records.size());

  // Per stratum, value multiset must survive the repartition intact.
  std::map<sampling::StratumId, std::size_t> counts;
  for (std::size_t w = 0; w < config.workers; ++w) {
    for (const auto& record : drained.records[w]) ++counts[record.stratum];
  }
  for (sampling::StratumId s = 0; s < 16; ++s) {
    EXPECT_EQ(counts[s], records.size() / 16) << "stratum " << s;
  }
}

TEST(Exchange, WorkersExceedPartitionCount) {
  // The decoupling the exchange exists for: 2 partitions feeding 8 channels.
  Broker broker;
  broker.create_topic("t", 2);
  const auto records = ordered_records(8'000, 32);
  Producer producer(broker, "t");
  producer.send_batch(records);
  producer.finish();

  ExchangeConfig config;
  config.workers = 8;
  const auto drained = run_and_drain(broker, "t", config);

  std::size_t delivered = 0;
  std::size_t busy_channels = 0;
  for (std::size_t w = 0; w < config.workers; ++w) {
    delivered += drained.records[w].size();
    if (!drained.records[w].empty()) ++busy_channels;
  }
  EXPECT_EQ(delivered, records.size());
  // 32 strata over 8 channels: the hash must spread work beyond 2 channels.
  EXPECT_GT(busy_channels, 2u);
}

TEST(Exchange, WatermarkPreservedAcrossRepartition) {
  Broker broker;
  broker.create_topic("t", 3);
  const auto records = ordered_records(30'000, 9);
  Producer producer(broker, "t");
  producer.send_batch(records);
  producer.finish();

  ExchangeConfig config;
  config.workers = 4;
  config.batch_size = 128;
  const auto drained = run_and_drain(broker, "t", config);

  for (std::size_t w = 0; w < config.workers; ++w) {
    // The low-watermark guarantee after re-keying: once a channel has seen
    // watermark W, no later record on that channel may lie below W (the
    // input is in order, so nothing is late at the source).
    for (std::size_t i = 0; i < drained.records[w].size(); ++i) {
      const std::int64_t promised = drained.watermark_at_arrival[w][i];
      if (promised == engine::kNoWatermark ||
          promised == engine::kWatermarkFlush) {
        continue;
      }
      EXPECT_GE(drained.records[w][i].event_time_us, promised)
          << "channel " << w << " record " << i
          << " arrived below an already-forwarded watermark";
    }
    // End of stream: every channel ends on the flush sentinel.
    EXPECT_EQ(drained.final_watermark[w], engine::kWatermarkFlush);
  }
}

TEST(Exchange, BackpressureLosesNothing) {
  // Tiny rings + a slow consumer: the exchange must block, not drop.
  Broker broker;
  broker.create_topic("t", 2);
  const auto records = ordered_records(4'000, 8);
  Producer producer(broker, "t");
  producer.send_batch(records);
  producer.finish();

  ExchangeConfig config;
  config.workers = 2;
  config.batch_size = 64;
  config.ring_capacity = 2;
  const auto drained =
      run_and_drain(broker, "t", config, /*consumer_delay_us=*/200);

  std::size_t delivered = 0;
  for (const auto& channel : drained.records) delivered += channel.size();
  EXPECT_EQ(delivered, records.size());
}

TEST(Exchange, HeartbeatsRecycleThroughZeroReservePool) {
  // Heartbeats are empty watermark carriers; routing them through the data
  // pool would pin batch_size-record capacity per idle channel. The
  // dedicated pool must absorb them instead: no heartbeat ever carries
  // record capacity, recycled or new. (BatchPool's own suite checks that a
  // pool's high-water mark stays at the in-flight peak.)
  Broker broker;
  broker.create_topic("t", 1);
  const auto records = ordered_records(2'000, 1);  // one stratum: one busy channel
  Producer producer(broker, "t");
  producer.send_batch(records);
  producer.finish();

  ExchangeConfig config;
  config.workers = 4;
  Exchange exchange(broker, "t", config);
  std::thread runner([&] { exchange.run(); });

  std::size_t delivered = 0;
  std::size_t heartbeats = 0;
  for (;;) {
    bool all_drained = true;
    for (std::size_t w = 0; w < config.workers; ++w) {
      while (auto batch = exchange.pop(w)) {
        if (batch->heartbeat) {
          ++heartbeats;
          EXPECT_EQ(batch->records.capacity(), 0u);
        }
        delivered += batch->size();
        exchange.recycle(std::move(batch));
      }
      all_drained = all_drained && exchange.drained(w);
    }
    if (all_drained) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  runner.join();

  EXPECT_EQ(delivered, records.size());
  // Three idle channels got heartbeats only — at least a flush sentinel each.
  EXPECT_GE(heartbeats, config.workers - 1);
  EXPECT_EQ(exchange.stats().heartbeats, heartbeats);
}

TEST(Exchange, IdleGraceWindowRestartsOnDataRounds) {
  // Regression: the grace stopwatch used to start once at run() entry and
  // never restart, so once the first idle_partition_timeout_ms of wall time
  // had passed, a never-delivered partition stopped gating the watermark
  // forever — even while data kept flowing on the other partitions. The
  // fix restarts grace on every round that routes data: as long as
  // partition 0 keeps delivering with gaps far below the timeout, silent
  // partition 1 must hold the watermark at kNoWatermark, however much wall
  // time accumulates.
  Broker broker;
  broker.create_topic("t", 2);
  Producer producer(broker, "t");

  ExchangeConfig config;
  config.workers = 1;
  config.idle_partition_timeout_ms = 800;
  Exchange exchange(broker, "t", config);
  std::thread runner([&] { exchange.run(); });

  struct Observed {
    std::int64_t watermark_us;
    bool has_stratum1;
  };
  std::vector<Observed> observed;
  std::size_t delivered = 0;
  std::thread drainer([&] {
    while (!exchange.drained(0)) {
      while (auto batch = exchange.pop(0)) {
        bool has_stratum1 = false;
        for (const auto& record : batch->records) {
          if (record.stratum == 1) has_stratum1 = true;
        }
        delivered += batch->size();
        observed.push_back({batch->watermark_us, has_stratum1});
        exchange.recycle(std::move(batch));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Stratum s maps to partition s % 2: stratum 0 feeds partition 0 for
  // 1.2 s of wall time (> timeout) in 200 ms steps (each gap well under
  // the timeout), while partition 1 stays silent.
  for (int i = 0; i < 6; ++i) {
    engine::Record record;
    record.stratum = 0;
    record.value = static_cast<double>(i);
    record.event_time_us = 1'000'000 * (i + 1);
    producer.send(record);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  // Partition 1 wakes up, then the stream ends.
  engine::Record late;
  late.stratum = 1;
  late.value = 42.0;
  late.event_time_us = 500'000;
  producer.send(late);
  producer.finish();

  runner.join();
  drainer.join();

  EXPECT_EQ(delivered, 7u);
  // Until partition 1's record arrived, it had never delivered — so it must
  // still be inside a (continually refreshed) grace window and the resolved
  // watermark must be kNoWatermark. The buggy once-started stopwatch stamped
  // a real watermark on every batch after the first 800 ms.
  bool woke = false;
  for (const auto& batch : observed) {
    if (batch.has_stratum1) woke = true;
    if (!woke) {
      EXPECT_EQ(batch.watermark_us, engine::kNoWatermark)
          << "silent partition was grace-expired while data kept flowing";
    }
  }
  ASSERT_TRUE(woke);
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.back().watermark_us, engine::kWatermarkFlush);
}

TEST(Exchange, RouteIsDeterministicAndInRange) {
  for (std::size_t workers : {1u, 3u, 8u}) {
    for (sampling::StratumId s = 0; s < 1000; ++s) {
      const std::size_t w = Exchange::route(s, workers);
      EXPECT_LT(w, workers);
      EXPECT_EQ(w, Exchange::route(s, workers));
    }
  }
}

}  // namespace
}  // namespace streamapprox::ingest
