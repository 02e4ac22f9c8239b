// Tests for the replay tool: completeness, sealing, rate control.
#include "ingest/replay.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace streamapprox::ingest {
namespace {

using engine::Record;

std::vector<Record> make_records(std::size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Record{static_cast<sampling::StratumId>(i % 3),
                             static_cast<double>(i),
                             static_cast<std::int64_t>(i)});
  }
  return records;
}

TEST(ReplayTool, DeliversEverythingAndSeals) {
  Broker broker;
  broker.create_topic("replay", 3);
  ReplayConfig config;
  config.messages_per_sec = 0.0;  // saturation
  config.items_per_message = 10;
  ReplayTool replay(broker, "replay", make_records(1000), config);
  replay.wait();
  EXPECT_EQ(broker.topic("replay").total_records(), 1000u);
  EXPECT_EQ(replay.messages_sent(), 100u);

  Consumer consumer(broker, "replay");
  std::vector<engine::Record> buffer;
  std::size_t count = 0;
  while (!consumer.exhausted()) count += consumer.poll(buffer, 128, 10);
  EXPECT_EQ(count, 1000u);
}

TEST(ReplayTool, PartialLastMessage) {
  Broker broker;
  broker.create_topic("replay", 1);
  ReplayConfig config;
  config.items_per_message = 64;
  ReplayTool replay(broker, "replay", make_records(100), config);
  replay.wait();
  EXPECT_EQ(replay.messages_sent(), 2u);  // 64 + 36
  EXPECT_EQ(broker.topic("replay").total_records(), 100u);
}

TEST(ReplayTool, RateControlPacesDelivery) {
  Broker broker;
  broker.create_topic("replay", 1);
  ReplayConfig config;
  config.messages_per_sec = 100.0;  // 10 messages => ~0.1 s
  config.items_per_message = 10;
  streamapprox::Stopwatch watch;
  ReplayTool replay(broker, "replay", make_records(100), config);
  replay.wait();
  // The bucket starts full (burst = 1 second worth), so the first 100
  // messages may pass immediately; what we require is that it does not take
  // absurdly long and that everything arrives.
  EXPECT_LT(watch.seconds(), 5.0);
  EXPECT_EQ(broker.topic("replay").total_records(), 100u);
}

TEST(ReplayTool, SlowRateIsActuallyPaced) {
  Broker broker;
  broker.create_topic("replay", 1);
  ReplayConfig config;
  config.messages_per_sec = 50.0;
  config.items_per_message = 1;
  // burst = 50 tokens, 60 messages total => at least ~10/50 s of pacing.
  streamapprox::Stopwatch watch;
  ReplayTool replay(broker, "replay", make_records(60), config);
  replay.wait();
  EXPECT_GT(watch.seconds(), 0.1);
  EXPECT_EQ(broker.topic("replay").total_records(), 60u);
}

TEST(ReplayTool, ZeroItemsPerMessageNormalised) {
  Broker broker;
  broker.create_topic("replay", 1);
  ReplayConfig config;
  config.items_per_message = 0;  // coerced to 1
  ReplayTool replay(broker, "replay", make_records(5), config);
  replay.wait();
  EXPECT_EQ(replay.messages_sent(), 5u);
}

TEST(TokenBucket, SaturationModeNeverBlocks) {
  streamapprox::TokenBucket bucket(0.0);
  streamapprox::Stopwatch watch;
  for (int i = 0; i < 100000; ++i) bucket.acquire();
  EXPECT_LT(watch.seconds(), 0.5);
}

}  // namespace
}  // namespace streamapprox::ingest
