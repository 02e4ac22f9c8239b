// Exchange routing-kernel microbenchmark: the two-pass bulk kernel (pass 1
// route/histogram per same-stratum run, pass 2 reserve-once + scatter),
// isolated from sampling and windowing — a preloaded sealed topic on one
// side and rings sized to hold the whole routed stream on the other, so the
// measured wall time is the exchange thread's routing loop. The axes are the
// ones that change the run-length structure the kernel exploits:
// stratum-arrival regime (uniform random / Zipf-skewed / stratum-sorted),
// stratum count (8–1024), and channel fan-out (1–8).
//
// Writes BENCH_micro_exchange.json (schema-gated by
// scripts/check_bench_json.py): one run per (regime, strata, channels) cell
// with records/s and the kernel's own cost accounting (rounds, runs walked,
// table probes, scatter reserves). Scale the workload with SA_BENCH_SCALE.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/table.h"
#include "ingest/broker.h"
#include "ingest/exchange.h"

namespace {

using namespace streamapprox;

constexpr std::size_t kPartitions = 4;
constexpr int kPasses = 3;

std::vector<engine::Record> make_stream(const std::string& regime,
                                        std::size_t count,
                                        std::uint64_t strata) {
  Rng rng(0x5eedULL + strata);
  std::vector<engine::Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    engine::Record record;
    if (regime == "uniform") {
      record.stratum = static_cast<sampling::StratumId>(
          rng.uniform_int(strata));
    } else if (regime == "zipf") {
      record.stratum = static_cast<sampling::StratumId>(rng.zipf(strata, 1.2));
    } else {  // "sorted": contiguous block per stratum
      record.stratum = static_cast<sampling::StratumId>(
          i / std::max<std::size_t>(1, count / strata) % strata);
    }
    record.value = static_cast<double>(i);
    record.event_time_us = static_cast<std::int64_t>(i);
    records.push_back(record);
  }
  return records;
}

struct Measured {
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  ingest::ExchangeStats stats;
};

/// One timed exchange run over a preloaded sealed topic. The rings are
/// sized to hold the entire routed stream, so run() never blocks on a
/// consumer and the measured wall time is the routing loop plus uncontended
/// ring pushes — no drain-thread scheduling in the number (crucial on
/// small/single-core containers, where a concurrent drainer would time-slice
/// against the exchange). Draining happens after the stopwatch.
Measured measure_once(const std::vector<engine::Record>& records,
                      std::size_t channels) {
  ingest::Broker broker;
  broker.create_topic("micro", kPartitions);
  {
    ingest::Producer producer(broker, "micro");
    producer.send_batch(records);
    producer.finish();
  }

  ingest::ExchangeConfig config;
  config.workers = channels;
  config.batch_size = 1024;
  // Upper bound on batches per channel: one data batch plus one heartbeat
  // per round, and a skewed stream can route nearly everything through one
  // partition (rounds <= ceil(records / batch_size)).
  config.ring_capacity =
      2 * (records.size() / config.batch_size + 2) + 8;
  ingest::Exchange exchange(broker, "micro", config);

  Stopwatch watch;
  exchange.run();
  Measured measured;
  measured.wall_seconds = watch.seconds();

  std::size_t drained = 0;
  for (std::size_t w = 0; w < channels; ++w) {
    while (auto batch = exchange.pop(w)) {
      drained += batch->size();
      exchange.recycle(std::move(batch));
    }
  }
  if (drained != records.size()) {
    std::fprintf(stderr, "micro_exchange: drained %zu of %zu records\n",
                 drained, records.size());
    std::exit(1);
  }
  measured.records_per_sec =
      measured.wall_seconds > 0.0
          ? static_cast<double>(records.size()) / measured.wall_seconds
          : 0.0;
  measured.stats = exchange.stats();
  return measured;
}

/// Best of kPasses (microbenchmark convention: the minimum wall time is the
/// least-noisy estimate of the kernel's cost).
Measured measure(const std::vector<engine::Record>& records,
                 std::size_t channels) {
  Measured best;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto measured = measure_once(records, channels);
    if (pass == 0 || measured.wall_seconds < best.wall_seconds) {
      best = measured;
    }
  }
  return best;
}

bench::Json run_json(const std::string& regime, std::uint64_t strata,
                     std::size_t channels, std::size_t records,
                     const Measured& measured) {
  auto entry = bench::Json::object();
  entry.set("mode", "bulk-" + regime);
  entry.set("workers", channels);
  entry.set("throughput", measured.records_per_sec);
  entry.set("wall_seconds", measured.wall_seconds);
  entry.set("kernel", "bulk");
  entry.set("regime", regime);
  entry.set("strata", strata);
  entry.set("records_per_sec", measured.records_per_sec);
  entry.set("records", records);
  entry.set("rounds", measured.stats.rounds);
  entry.set("runs_walked", measured.stats.runs);
  entry.set("mean_run_length",
            measured.stats.runs > 0
                ? static_cast<double>(measured.stats.records) /
                      static_cast<double>(measured.stats.runs)
                : 0.0);
  entry.set("table_probes", measured.stats.table_probes);
  entry.set("scatter_reserves", measured.stats.scatter_reserves);
  return entry;
}

}  // namespace

int main() {
  const std::size_t count = bench::scaled(1u << 19);
  std::printf(
      "Exchange routing kernel: bulk two-pass "
      "(%zu records/run, %zu partitions, best of %d passes, scale %.2f)\n\n",
      count, kPartitions, kPasses, bench::bench_scale());

  struct Cell {
    const char* regime;
    std::uint64_t strata;
    std::size_t channels;
  };
  std::vector<Cell> cells;
  for (const char* regime : {"uniform", "zipf", "sorted"}) {
    for (const std::uint64_t strata : {8u, 64u, 1024u}) {
      cells.push_back({regime, strata, 4});
    }
  }
  // Channel fan-out sweep on the mid-size skewed mix (4 is covered above).
  cells.push_back({"zipf", 64, 1});
  cells.push_back({"zipf", 64, 8});

  auto runs_json = bench::Json::array();
  Table table("Routing kernel throughput (records/s)",
              {"Regime", "Strata", "Channels", "Mean run", "Bulk"});
  for (const auto& cell : cells) {
    const auto records = make_stream(cell.regime, count, cell.strata);
    const auto bulk = measure(records, cell.channels);
    runs_json.push(run_json(cell.regime, cell.strata, cell.channels,
                            records.size(), bulk));
    const double mean_run =
        bulk.stats.runs > 0
            ? static_cast<double>(bulk.stats.records) /
                  static_cast<double>(bulk.stats.runs)
            : 0.0;
    table.add_row({cell.regime, std::to_string(cell.strata),
                   std::to_string(cell.channels), Table::num(mean_run),
                   bench::format_throughput(bulk.records_per_sec)});
  }
  table.print();

  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("records_per_run", count);
  meta.set("partitions", kPartitions);
  meta.set("passes", kPasses);
  meta.set("batch_size", 1024);
  auto body = bench::Json::object();
  body.set("meta", meta);
  body.set("runs", runs_json);
  bench::write_bench_json("micro_exchange", body);

  bench::paper_shape(
      "Expected shape: throughput is lowest on uniform short-run mixes "
      "(run length ~1 degrades the kernel to record-at-a-time with one "
      "extra pass) and climbs on Zipf and sorted streams, where pass 1 "
      "touches one route hash and one table probe per RUN and pass 2 "
      "scatters with one reserve per destination batch.");
  return 0;
}
