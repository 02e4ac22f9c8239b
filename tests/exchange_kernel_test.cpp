// Kernel equivalence: the exchange's two-pass routing kernel must be
// bit-identical to a record-at-a-time reference router on every externally
// observable axis — per-channel record order, route_strata/total_strata
// occupancy stamps, sequence numbers, and the watermark/heartbeat sequence.
// On a pre-loaded SEALED topic the exchange's round structure is
// deterministic (every poll drains batch_size records per partition until
// exhaustion, with no idle rounds), so the test-local
// reference below replays those rounds and the two are compared as full
// transcripts, batch by batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/watermark.h"
#include "engine/record_batch.h"
#include "ingest/broker.h"
#include "ingest/exchange.h"

namespace streamapprox::ingest {
namespace {

/// Everything a receiver can observe about one batch.
struct BatchTranscript {
  std::uint64_t seq = 0;
  std::uint32_t channel = 0;
  bool heartbeat = false;
  std::int64_t watermark_us = 0;
  std::uint32_t route_strata = 0;
  std::uint32_t total_strata = 0;
  std::vector<engine::Record> records;
};

struct ExchangeRun {
  std::vector<std::vector<BatchTranscript>> channels;
  ExchangeStats stats;
  std::int64_t max_routed_event_us = engine::kNoWatermark;
};

/// Loads `records` into a sealed `partitions`-way topic "t".
void load_topic(Broker& broker, const std::vector<engine::Record>& records,
                std::size_t partitions) {
  broker.create_topic("t", partitions);
  Producer producer(broker, "t");
  producer.send_batch(records);
  producer.finish();
}

/// Runs one exchange over topic "t", capturing the full per-channel
/// transcript.
ExchangeRun run_exchange(Broker& broker, const ExchangeConfig& config) {
  Exchange exchange(broker, "t", config);
  std::thread runner([&] { exchange.run(); });

  ExchangeRun out;
  out.channels.resize(config.workers);
  for (;;) {
    bool all_drained = true;
    for (std::size_t w = 0; w < config.workers; ++w) {
      while (auto batch = exchange.pop(w)) {
        BatchTranscript entry;
        entry.seq = batch->seq;
        entry.channel = batch->channel;
        entry.heartbeat = batch->heartbeat;
        entry.watermark_us = batch->watermark_us;
        entry.route_strata = batch->route_strata;
        entry.total_strata = batch->total_strata;
        entry.records = batch->records;
        out.channels[w].push_back(std::move(entry));
        exchange.recycle(std::move(batch));
      }
      all_drained = all_drained && exchange.drained(w);
    }
    if (all_drained) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  runner.join();

  out.stats = exchange.stats();
  out.max_routed_event_us = exchange.max_routed_event_us();
  return out;
}

/// The reference router: replays the exchange's rounds over a sealed topic
/// with its own consumers (each round polls up to batch_size records from
/// every unexhausted partition in index order) and routes record by
/// record — occupancy in a plain set, the watermark resolved from
/// per-partition clocks after every round, and a heartbeat to each channel
/// whose last-sent watermark is stale.
ExchangeRun reference_route(Broker& broker, const ExchangeConfig& config) {
  const std::size_t workers = config.workers;
  std::vector<Consumer> inputs;
  const std::size_t partitions = broker.topic("t").partition_count();
  for (std::size_t p = 0; p < partitions; ++p) {
    inputs.emplace_back(broker, "t", std::vector<std::size_t>{p});
  }
  std::vector<std::int64_t> clocks(inputs.size(), core::kNoClock);
  std::unordered_set<sampling::StratumId> strata_seen;
  std::vector<std::uint32_t> channel_strata(workers, 0);
  std::vector<std::int64_t> last_sent(workers, engine::kNoWatermark);
  std::vector<std::uint64_t> next_seq(workers, 0);
  std::vector<engine::Record> polled;

  ExchangeRun out;
  out.channels.resize(workers);
  for (;;) {
    std::vector<BatchTranscript> round(workers);
    bool any_data = false;
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      if (inputs[p].exhausted()) continue;
      inputs[p].poll(polled, config.batch_size, /*timeout_ms=*/0);
      if (polled.empty()) continue;
      any_data = true;
      out.stats.records += polled.size();
      for (const auto& record : polled) {
        const std::size_t w = Exchange::route(record.stratum, workers);
        if (strata_seen.insert(record.stratum).second) ++channel_strata[w];
        round[w].records.push_back(record);
        clocks[p] = std::max(clocks[p], record.event_time_us);
        out.max_routed_event_us =
            std::max(out.max_routed_event_us, record.event_time_us);
      }
    }
    if (any_data) ++out.stats.rounds;

    bool all_drained = true;
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      if (inputs[p].exhausted()) {
        clocks[p] = core::kPartitionDrained;
      } else {
        all_drained = false;
      }
    }
    // Every partition of a sealed topic delivers in round one or is already
    // drained, so no silent partition is ever left to apply grace to.
    const std::int64_t resolved = core::resolve_watermark(
        core::evaluate_watermark(clocks, /*idle_grace_over=*/false));
    for (std::size_t w = 0; w < workers; ++w) {
      BatchTranscript& batch = round[w];
      batch.heartbeat = batch.records.empty();
      if (batch.heartbeat && last_sent[w] == resolved) continue;
      batch.seq = next_seq[w]++;
      batch.channel = static_cast<std::uint32_t>(w);
      batch.watermark_us = resolved;
      batch.route_strata = channel_strata[w];
      batch.total_strata = static_cast<std::uint32_t>(strata_seen.size());
      if (batch.heartbeat) {
        ++out.stats.heartbeats;
      } else {
        ++out.stats.batches;
      }
      last_sent[w] = resolved;
      out.channels[w].push_back(std::move(batch));
    }
    if (all_drained) break;
    if (!any_data) {
      ADD_FAILURE() << "reference: idle round on a sealed topic";
      break;
    }
  }
  return out;
}

/// Runs the exchange and the reference router over the same sealed topic.
std::pair<ExchangeRun, ExchangeRun> run_both(
    const std::vector<engine::Record>& records, std::size_t partitions,
    const ExchangeConfig& config) {
  Broker broker;
  load_topic(broker, records, partitions);
  auto actual = run_exchange(broker, config);
  auto reference = reference_route(broker, config);
  return {std::move(actual), std::move(reference)};
}

void expect_identical(const ExchangeRun& actual, const ExchangeRun& reference,
                      const std::string& label) {
  ASSERT_EQ(actual.channels.size(), reference.channels.size()) << label;
  std::uint64_t records_emitted = 0;
  for (std::size_t w = 0; w < actual.channels.size(); ++w) {
    const auto& a = actual.channels[w];
    const auto& r = reference.channels[w];
    ASSERT_EQ(a.size(), r.size()) << label << " channel " << w;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string at =
          label + " channel " + std::to_string(w) + " batch " +
          std::to_string(i);
      EXPECT_EQ(a[i].seq, r[i].seq) << at;
      EXPECT_EQ(a[i].channel, r[i].channel) << at;
      EXPECT_EQ(a[i].heartbeat, r[i].heartbeat) << at;
      EXPECT_EQ(a[i].watermark_us, r[i].watermark_us) << at;
      EXPECT_EQ(a[i].route_strata, r[i].route_strata) << at;
      EXPECT_EQ(a[i].total_strata, r[i].total_strata) << at;
      ASSERT_EQ(a[i].records, r[i].records) << at;
      records_emitted += a[i].records.size();
    }
  }
  EXPECT_EQ(actual.stats.batches, reference.stats.batches) << label;
  EXPECT_EQ(actual.stats.heartbeats, reference.stats.heartbeats) << label;
  // The poll-time record count is the total the channels received.
  EXPECT_EQ(actual.stats.records, records_emitted) << label;
  EXPECT_EQ(actual.max_routed_event_us, reference.max_routed_event_us) << label;
  EXPECT_EQ(actual.stats.rounds, reference.stats.rounds) << label;
  EXPECT_EQ(actual.stats.records, reference.stats.records) << label;
}

/// Record stream with geometric-ish run lengths over `strata` strata:
/// Zipf-skewed stratum choice repeated for a random run length, so the mix
/// covers length-1 runs and long runs in one stream.
std::vector<engine::Record> run_length_mix(std::size_t count,
                                           std::uint64_t strata, double skew,
                                           std::size_t max_run,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<engine::Record> records;
  records.reserve(count);
  while (records.size() < count) {
    const auto stratum =
        static_cast<sampling::StratumId>(rng.zipf(strata, skew));
    const std::size_t run = 1 + rng.uniform_int(max_run);
    for (std::size_t i = 0; i < run && records.size() < count; ++i) {
      engine::Record record;
      record.stratum = stratum;
      record.value = static_cast<double>(records.size());
      record.event_time_us =
          static_cast<std::int64_t>(records.size()) * 100 +
          static_cast<std::int64_t>(rng.uniform_int(50));
      records.push_back(record);
    }
  }
  return records;
}

TEST(ExchangeKernel, IdenticalOnRandomizedRunLengthMixes) {
  struct Case {
    std::uint64_t strata;
    double skew;
    std::size_t max_run;
    std::size_t partitions;
    std::size_t workers;
    std::size_t batch_size;
  };
  const Case cases[] = {
      {3, 0.0, 1, 1, 1, 64},      // every run length 1, single channel
      {17, 0.0, 4, 2, 3, 64},     // short runs, uneven partition split
      {64, 1.2, 16, 2, 3, 1024},  // skewed, medium runs
      {64, 1.2, 64, 5, 8, 256},   // long runs over many partitions
      {257, 0.8, 8, 3, 8, 128},   // more strata than table's initial slots
  };
  std::uint64_t seed = 1;
  for (const auto& c : cases) {
    const auto records = run_length_mix(20'000, c.strata, c.skew, c.max_run,
                                        seed++);
    ExchangeConfig config;
    config.workers = c.workers;
    config.batch_size = c.batch_size;
    const auto [actual, reference] = run_both(records, c.partitions, config);
    expect_identical(actual, reference,
                     "strata=" + std::to_string(c.strata) +
                         " workers=" + std::to_string(c.workers));
  }
}

TEST(ExchangeKernel, IdenticalOnStratumSortedStream) {
  // The best case for the two-pass kernel: one run per stratum block.
  std::vector<engine::Record> records;
  for (sampling::StratumId s = 0; s < 64; ++s) {
    for (int i = 0; i < 500; ++i) {
      engine::Record record;
      record.stratum = s;
      record.value = static_cast<double>(records.size());
      record.event_time_us = static_cast<std::int64_t>(records.size());
      records.push_back(record);
    }
  }
  ExchangeConfig config;
  config.workers = 4;
  config.batch_size = 512;
  const auto [actual, reference] = run_both(records, 2, config);
  expect_identical(actual, reference, "sorted");
}

TEST(ExchangeKernel, IdenticalOnSingleRecordAndEmptyTopics) {
  ExchangeConfig config;
  config.workers = 3;

  engine::Record record;
  record.stratum = 9;
  record.value = 1.0;
  record.event_time_us = 123;
  {
    const auto [actual, reference] =
        run_both(std::vector<engine::Record>{record}, 2, config);
    expect_identical(actual, reference, "single-record");
  }
  {
    const auto [actual, reference] = run_both({}, 2, config);
    expect_identical(actual, reference, "empty-topic");
  }
}

TEST(ExchangeKernel, StatsAccountForKernelWork) {
  // Skew 0.9, not 1.0: Rng::zipf hits the rejection-inversion singularity
  // at s == 1 and collapses to a single stratum, which would route every
  // scratch through the pass-through swap (no reserves to count).
  const auto records = run_length_mix(30'000, 64, 0.9, 16, 99);
  ExchangeConfig config;
  config.workers = 4;
  config.batch_size = 512;
  Broker broker;
  load_topic(broker, records, 2);
  const auto run = run_exchange(broker, config);

  // Rounds and records are accounted at poll time.
  EXPECT_GT(run.stats.rounds, 0u);
  EXPECT_EQ(run.stats.records, records.size());

  // The kernel's aggregate steps are counted...
  EXPECT_GT(run.stats.runs, 0u);
  EXPECT_GT(run.stats.table_probes, 0u);
  EXPECT_GT(run.stats.scatter_reserves, 0u);
  // ...and are genuinely sub-record: runs (hence table probe chains) must
  // be far fewer than records on this run-friendly mix.
  EXPECT_LT(run.stats.runs, run.stats.records);
}

}  // namespace
}  // namespace streamapprox::ingest
