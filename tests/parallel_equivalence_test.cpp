// Satellite acceptance test: the sharded execution mode (N exchange-fed
// OASRS workers + watermark-gated merge) must be statistically equivalent to
// the sequential path — identical records_seen per window (no record gained
// or lost by sharding) and estimates that agree within their error bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/stream_approx.h"
#include "ingest/replay.h"
#include "workload/synthetic.h"

namespace streamapprox::core {
namespace {

std::vector<engine::Record> make_stream(double seconds, double rate,
                                        std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

StreamApproxConfig base_config(std::size_t workers) {
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  config.workers = workers;
  config.seed = 99;
  // These tests replay-and-seal; idleness is not under test (the dedicated
  // idle tests override this). A generous grace keeps a starved replay
  // thread on a loaded CI box from tripping the idleness rule mid-stream.
  config.idle_partition_timeout_ms = 30'000;
  return config;
}

struct StatsRun {
  std::vector<WindowOutput> outputs;
  ShardedRunStats stats;
};

/// Runs `records` through the facade at `workers`, replayed live into a
/// `partitions`-partition topic: the windows plus the run's scheduler
/// counters.
StatsRun run_mode_with_stats(
    const std::vector<engine::Record>& records, std::size_t workers,
    std::size_t partitions,
    const std::function<void(StreamApproxConfig&)>& mutate = {}) {
  ingest::Broker broker;
  broker.create_topic("input", partitions);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config(workers);
  if (mutate) mutate(config);
  StreamApprox system(broker, config);
  StatsRun run;
  system.run(
      [&](const WindowOutput& output) { run.outputs.push_back(output); });
  replay.wait();
  run.stats = system.last_run_stats();
  return run;
}

std::vector<WindowOutput> run_mode(
    const std::vector<engine::Record>& records, std::size_t workers,
    std::size_t partitions,
    const std::function<void(StreamApproxConfig&)>& mutate = {}) {
  return run_mode_with_stats(records, workers, partitions, mutate).outputs;
}

/// What a sharded run's sample depended on, for a failure message: the
/// steals, the records each worker absorbed, and the window that sampled the
/// smallest share of its records.
std::string describe_scheduling(const StatsRun& run) {
  std::ostringstream out;
  out << "steals " << run.stats.steals << " of "
      << run.stats.batches_absorbed << " batches; records per worker";
  for (const auto records : run.stats.per_worker_records) {
    out << ' ' << records;
  }
  double lowest = 1.0;
  std::int64_t lowest_end_us = 0;
  for (const auto& output : run.outputs) {
    if (output.records_seen == 0) continue;
    const double share = static_cast<double>(output.records_sampled) /
                         static_cast<double>(output.records_seen);
    if (share < lowest) {
      lowest = share;
      lowest_end_us = output.estimate.window_end_us;
    }
  }
  out << "; lowest window sampled fraction " << lowest
      << " (window ending at " << lowest_end_us << " us)";
  return out.str();
}

TEST(ParallelEquivalence, IdenticalSeenCountsPerWindow) {
  const auto records = make_stream(5.0, 24000.0, 7);
  const auto sequential = run_mode(records, 1, 3);
  const auto sharded = run_mode(records, 4, 3);

  ASSERT_GT(sequential.size(), 4u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              sharded[i].estimate.window_end_us)
        << "window " << i;
  }
}

TEST(ParallelEquivalence, EstimatesAgreeWithinErrorBounds) {
  const auto records = make_stream(5.0, 24000.0, 8);
  const auto sequential = run_mode(records, 1, 3);
  const auto sharded = run_mode(records, 4, 3);

  ASSERT_EQ(sequential.size(), sharded.size());
  std::size_t within = 0;
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto& a = sequential[i].estimate.overall;
    const auto& b = sharded[i].estimate.overall;
    EXPECT_GT(b.sample_size, 0u);
    // Both are unbiased estimators of the same window mean; at 3 sigma the
    // difference should be inside the summed bounds essentially always.
    const double tolerance = a.error_bound(3.0) + b.error_bound(3.0);
    if (std::abs(a.estimate - b.estimate) <= tolerance) ++within;
  }
  EXPECT_GE(within, sequential.size() - 1);  // slack for a tiny edge window
}

TEST(ParallelEquivalence, MorePartitionsThanStrata) {
  // An idle partition (5 partitions, 3 strata) must not wedge the merger.
  const auto records = make_stream(3.0, 20000.0, 9);
  const auto sequential = run_mode(records, 1, 5);
  const auto sharded = run_mode(records, 4, 5);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen);
  }
}

TEST(ParallelEquivalence, WorkersExceedPartitionsViaExchange) {
  // The tentpole acceptance case: an 8-worker / 2-partition topic. The
  // exchange re-keys partition batches by stratum hash onto 8 channels, so
  // parallelism is no longer capped by the partition count — and the
  // repartitioned path must still see exactly the sequential path's records
  // in every window.
  const auto records = make_stream(3.0, 20000.0, 10);
  const auto sequential = run_mode(records, 1, 2);
  const auto sharded = run_mode(records, 8, 2);
  ASSERT_GT(sequential.size(), 2u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              sharded[i].estimate.window_end_us)
        << "window " << i;
  }
}

TEST(ParallelEquivalence, SinglePartitionStillShardsViaExchange) {
  // One partition used to force the sequential path; the exchange spreads
  // its strata across workers regardless.
  const auto records = make_stream(3.0, 20000.0, 14);
  const auto sequential = run_mode(records, 1, 1);
  const auto sharded = run_mode(records, 4, 1);
  ASSERT_GT(sequential.size(), 2u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen);
  }
}

TEST(ParallelEquivalence, IdlePartitionDoesNotStallLiveWindows) {
  // 5 partitions, 3 strata: partitions 3 and 4 never deliver. On a LIVE
  // (unsealed) stream, windows must still flow once the idleness grace
  // period passes — in both execution modes.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ingest::Broker broker;
    broker.create_topic("input", 5);
    ingest::Producer producer(broker, "input");
    producer.send_batch(make_stream(4.0, 20000.0, 12));
    // NOT sealed: the stream stays live while we look for windows.
    auto config = base_config(workers);
    config.idle_partition_timeout_ms = 100;
    StreamApprox system(broker, config);
    std::atomic<std::size_t> windows{0};
    std::thread runner([&] {
      system.run([&](const WindowOutput&) { windows.fetch_add(1); });
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (windows.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(windows.load(), 0u)
        << "no live windows with workers=" << workers;
    producer.finish();
    runner.join();
  }
}

TEST(ParallelEquivalence, DrainedActivePlusIdlePartitionStillFlushes) {
  // The last active partition drains (individually sealed) while an idle
  // partition stays unsealed: buffered windows must still flush instead of
  // waiting forever on the idle partition — in both execution modes.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ingest::Broker broker;
    auto& topic = broker.create_topic("input", 2);
    // Stratum 0 routes to partition 0; spans 3 s so several windows close.
    for (int i = 0; i < 3000; ++i) {
      topic.partition(0).append(engine::Record{0, 1.0, i * 1000});
    }
    topic.partition(0).seal();
    // Partition 1: never delivers, never sealed (while we watch).
    auto config = base_config(workers);
    config.idle_partition_timeout_ms = 100;
    StreamApprox system(broker, config);
    std::atomic<std::size_t> windows{0};
    std::thread runner([&] {
      system.run([&](const WindowOutput&) { windows.fetch_add(1); });
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (windows.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(windows.load(), 0u)
        << "stranded windows with workers=" << workers;
    topic.partition(1).seal();
    runner.join();
  }
}

TEST(ParallelEquivalence, IdlePartitionResumesWithoutDroppingLiveRecords) {
  // A partition that goes idle past idle_partition_timeout_ms stops gating
  // the watermark; when it later RESUMES with records at live event times
  // (at or beyond the watermark), it must re-enter the watermark and none of
  // its live records may be dropped — in every execution mode.
  struct Mode {
    const char* name;
    std::size_t workers;
  };
  for (const Mode mode : {Mode{"sequential", 1}, Mode{"sharded", 4}}) {
    ingest::Broker broker;
    auto& topic = broker.create_topic("input", 2);
    // Phase 1: stratum 0 -> partition 0, 3000 records over [0 s, 3 s).
    // Partition 1 stays silent past the grace period.
    for (int i = 0; i < 3000; ++i) {
      topic.partition(0).append(engine::Record{0, 1.0, i * 1000});
    }
    auto config = base_config(mode.workers);
    config.window = {1'000'000, 1'000'000};  // tumbling: each record counted once
    config.idle_partition_timeout_ms = 100;
    StreamApprox system(broker, config);
    std::atomic<std::size_t> windows{0};
    std::atomic<std::uint64_t> seen{0};
    std::thread runner([&] {
      system.run([&](const WindowOutput& output) {
        windows.fetch_add(1);
        seen.fetch_add(output.records_seen);
      });
    });
    // Wait until the idle partition was excluded and windows flowed.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (windows.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GT(windows.load(), 0u) << mode.name << ": no windows while idle";
    // Phase 2: partition 1 resumes with LIVE records, [3 s, 6 s) — all at
    // or beyond any closed slide's end, so none may be late-dropped.
    for (int i = 0; i < 3000; ++i) {
      topic.partition(1).append(
          engine::Record{1, 2.0, 3'000'000 + i * 1000});
    }
    topic.seal();
    runner.join();
    EXPECT_EQ(windows.load(), 6u) << mode.name;
    EXPECT_EQ(seen.load(), 6000u)
        << mode.name << ": resumed partition's live records were dropped";
  }
}

TEST(ParallelEquivalence, IdleGraceWindowRestartsOnDataPolls) {
  // The facade-level twin of Exchange.IdleGraceWindowRestartsOnDataRounds,
  // in both modes, which share the exchange's grace rule: the grace window
  // restarts on every round that routes data, so a partition that never
  // delivered keeps gating while the other partition keeps delivering, and
  // its first record, older than every live one, is counted rather than
  // late-dropped. A grace stopwatch started once and never restarted would
  // stop gating for good after idle_partition_timeout_ms of wall time.
  constexpr std::uint64_t kLive = 15;
  std::vector<std::uint64_t> seen_by_mode;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ingest::Broker broker;
    broker.create_topic("input", 2);
    ingest::Producer producer(broker, "input");
    auto config = base_config(workers);
    config.window = {1'000'000, 1'000'000};  // tumbling: each record once
    config.idle_partition_timeout_ms = 1000;
    StreamApprox system(broker, config);
    std::uint64_t seen = 0;
    std::thread runner([&] {
      system.run(
          [&](const WindowOutput& output) { seen += output.records_seen; });
    });
    // Stratum s feeds partition s % 2. Stratum 0 delivers for 1.5 s of wall
    // time (longer than the timeout) in 100 ms steps (each gap far below
    // it) while partition 1 stays silent...
    for (std::uint64_t i = 0; i < kLive; ++i) {
      producer.send(engine::Record{
          0, 1.0, static_cast<std::int64_t>(i + 1) * 1'000'000});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    // ...then partition 1 wakes with a record older than every live one.
    producer.send(engine::Record{1, 2.0, 500'000});
    producer.finish();
    runner.join();
    seen_by_mode.push_back(seen);
  }
  EXPECT_EQ(seen_by_mode[0], kLive + 1)
      << "the sequential path late-dropped the woken partition's record";
  EXPECT_EQ(seen_by_mode[1], seen_by_mode[0]);
}

/// Every field of two window outputs, doubles compared exactly.
void expect_same_output(const WindowOutput& a, const WindowOutput& b,
                        std::size_t window) {
  const auto same_result = [&](const estimation::ApproxResult& x,
                               const estimation::ApproxResult& y) {
    EXPECT_EQ(x.estimate, y.estimate) << "window " << window;
    EXPECT_EQ(x.variance, y.variance) << "window " << window;
    EXPECT_EQ(x.population, y.population) << "window " << window;
    EXPECT_EQ(x.sample_size, y.sample_size) << "window " << window;
  };
  const auto same_estimate = [&](const WindowEstimate& x,
                                 const WindowEstimate& y) {
    EXPECT_EQ(x.window_start_us, y.window_start_us) << "window " << window;
    EXPECT_EQ(x.window_end_us, y.window_end_us) << "window " << window;
    same_result(x.overall, y.overall);
    ASSERT_EQ(x.groups.size(), y.groups.size()) << "window " << window;
    for (std::size_t g = 0; g < x.groups.size(); ++g) {
      EXPECT_EQ(x.groups[g].first, y.groups[g].first) << "window " << window;
      same_result(x.groups[g].second, y.groups[g].second);
    }
  };
  same_estimate(a.estimate, b.estimate);
  EXPECT_EQ(a.records_seen, b.records_seen) << "window " << window;
  EXPECT_EQ(a.records_sampled, b.records_sampled) << "window " << window;
  EXPECT_EQ(a.budget_in_force, b.budget_in_force) << "window " << window;
  ASSERT_EQ(a.queries.size(), b.queries.size()) << "window " << window;
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    const QueryOutput& x = a.queries[q];
    const QueryOutput& y = b.queries[q];
    EXPECT_EQ(x.name, y.name) << "window " << window;
    same_estimate(x.estimate, y.estimate);
    EXPECT_EQ(x.histogram.has_value(), y.histogram.has_value());
    EXPECT_EQ(x.z, y.z) << "window " << window;
    EXPECT_EQ(x.observed_relative_bound, y.observed_relative_bound)
        << "window " << window;
    EXPECT_EQ(x.sketch, y.sketch) << "window " << window;
  }
}

TEST(ParallelEquivalence, SequentialExchangeRoundEdges) {
  // The one-worker path reads a one-channel exchange on the run thread, one
  // polling round at a time, each round stamped with one watermark. Round
  // edges: poll_batch 1 (the smallest accepted) and 7 (dividing neither
  // stratum's count); partitions 0 and 1 draining in different rounds
  // (1000 vs 2500 records over the same 3 s); partition 2 never receiving
  // a record. On a sealed topic every window counts exactly the records the
  // exact oracle and the sharded run count, and the run is deterministic.
  std::vector<engine::Record> records;
  for (int i = 0; i < 1000; ++i) {
    records.push_back(engine::Record{0, 1.0 + i % 5, i * 3000});
  }
  for (int i = 0; i < 2500; ++i) {
    records.push_back(engine::Record{1, 2.0 + i % 7, i * 1200});
  }
  // The oracle reads the stream in event-time order; each partition keeps
  // its stratum's order either way.
  std::stable_sort(records.begin(), records.end(),
                   [](const engine::Record& a, const engine::Record& b) {
                     return a.event_time_us < b.event_time_us;
                   });
  const auto exact = exact_window_results(records, base_config(1).window);
  const auto run_sealed = [&](std::size_t workers, std::size_t poll) {
    ingest::Broker broker;
    broker.create_topic("input", 3);
    ingest::Producer producer(broker, "input");
    producer.send_batch(records);
    producer.finish();
    auto config = base_config(workers);
    config.queries.aggregate("sum by stratum", {Aggregation::kSum, true});
    config.poll_batch = poll;
    config.exchange_batch_size = poll;
    StreamApprox system(broker, config);
    std::vector<WindowOutput> outputs;
    system.run([&](const WindowOutput& output) { outputs.push_back(output); });
    return outputs;
  };
  for (const std::size_t poll : {std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE("poll_batch " + std::to_string(poll));
    const auto sequential = run_sealed(1, poll);
    const auto again = run_sealed(1, poll);
    const auto sharded = run_sealed(2, poll);
    ASSERT_EQ(sequential.size(), exact.size());
    ASSERT_EQ(again.size(), exact.size());
    ASSERT_EQ(sharded.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      std::uint64_t seen = 0;
      for (const auto& cell : exact[i].cells) seen += cell.seen;
      EXPECT_EQ(sequential[i].estimate.window_end_us, exact[i].window_end_us)
          << "window " << i;
      EXPECT_EQ(sequential[i].records_seen, seen) << "window " << i;
      EXPECT_EQ(sharded[i].records_seen, seen) << "window " << i;
      expect_same_output(sequential[i], again[i], i);
    }
  }
}

TEST(ParallelEquivalence, ThreeQueriesShardedSampleTheStreamOnce) {
  // Tentpole acceptance: >= 3 registered queries (mixed aggregations, one
  // per-stratum, one histogram) over one topic, on the exchange-sharded
  // path. The per-window sampling counters must equal the sequential
  // single-query run's — the stream is ingested, exchanged, sampled and
  // windowed exactly once no matter how many queries are registered.
  const auto records = make_stream(3.0, 20000.0, 16);
  const auto register_three = [](StreamApproxConfig& c) {
    c.queries = QuerySet{};
    c.queries.aggregate("sum by substream", {Aggregation::kSum, true});
    c.queries.aggregate("overall mean", {Aggregation::kMean, false});
    c.queries.histogram("values", {0.0, 12000.0, 24});
  };
  const auto sequential_single = run_mode(records, 1, 2);
  const auto sharded_multi = run_mode(records, 8, 2, register_three);

  ASSERT_GT(sequential_single.size(), 2u);
  ASSERT_EQ(sequential_single.size(), sharded_multi.size());
  for (std::size_t i = 0; i < sequential_single.size(); ++i) {
    ASSERT_EQ(sharded_multi[i].queries.size(), 3u);
    EXPECT_EQ(sequential_single[i].records_seen,
              sharded_multi[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential_single[i].estimate.window_end_us,
              sharded_multi[i].estimate.window_end_us)
        << "window " << i;
    EXPECT_TRUE(sharded_multi[i].queries[2].histogram.has_value());
  }
}

TEST(ParallelEquivalence, OccupancyAwareBudgetSplitRestoresSamplingFraction) {
  // ROADMAP regression (the quickstart's 3-strata-over-4-workers case at a
  // 20% budget): the flat budget/workers split strands the shares of
  // stratum-less workers — the exchange hash routes strata 0 and 1 to one
  // worker and stratum 2 to another, leaving two workers with nothing — so
  // the sharded path sampled only ~10%. The occupancy-aware split
  // (budget · my_strata/total_strata, stamped deterministically on every
  // exchange batch) restores the effective sampling fraction.
  //
  // 10240 rec/s makes the steady per-slide budget (0.20 × 5120 records per
  // 0.5 s slide) equal the driver's 1024-record bootstrap budget: slides the
  // workers open before the first close keep the bootstrap budget (live
  // reservoirs never grow), so at a higher rate those early slides undershoot
  // and drag the fraction down by a load-dependent amount.
  //
  // Small morsels in a short steal deque keep every owner absorbing part of
  // every slide. A thief samples stolen strata out of its OWN occupancy
  // share (the artifact is tracked in ROADMAP.md). With the defaults, a
  // saturated owner parks most of the stream in its 64-slot deque and works
  // newest-first, so a loaded box lets thieves take whole slides, which then
  // undersample. A 2-slot deque fails the other way under TSan's slowdown:
  // owners steal single morsels from each other and squeeze their own
  // strata. 8 slots of 256 records kept every loaded and TSan run above the
  // bar.
  const auto records = make_stream(6.0, 10240.0, 17);
  const auto set_fraction = [](StreamApproxConfig& c) {
    c.budget = estimation::QueryBudget::fraction(0.20);
    c.steal_deque_capacity = 8;
    c.exchange_batch_size = 256;
  };
  const auto sequential = run_mode(records, 1, 3, set_fraction);
  const auto sharded = run_mode_with_stats(records, 4, 3, set_fraction);
  const auto fraction = [](const std::vector<WindowOutput>& outputs) {
    std::uint64_t seen = 0;
    std::uint64_t sampled = 0;
    for (const auto& output : outputs) {
      seen += output.records_seen;
      sampled += output.records_sampled;
    }
    return static_cast<double>(sampled) / static_cast<double>(seen);
  };
  const double sequential_fraction = fraction(sequential);
  const double sharded_fraction = fraction(sharded.outputs);
  EXPECT_GT(sequential_fraction, 0.15);
  EXPECT_LT(sequential_fraction, 0.30);
  // A flat budget/workers split lands well below 0.9× the sequential
  // fraction; the occupancy-aware split must sample comparably.
  EXPECT_GT(sharded_fraction, 0.9 * sequential_fraction)
      << describe_scheduling(sharded);
}

// ---------------------------------------------------------------------------
// Work-stealing morsel scheduler: stolen morsels are absorbed into the
// thief's local samplers and merged at slide close, so redistribution must
// never change WHAT a window sees — only WHO processed it.

/// One hot stratum carrying most of the load: stratum-affine routing piles
/// the whole hot sub-stream onto a single channel, which is exactly the skew
/// that forces the scheduler to redistribute.
std::vector<engine::Record> make_hot_stream(double seconds, double rate,
                                            std::uint64_t seed) {
  constexpr std::size_t kStrata = 8;
  std::vector<workload::SubStreamSpec> specs;
  specs.reserve(kStrata);
  for (std::size_t i = 0; i < kStrata; ++i) {
    workload::SubStreamSpec spec;
    spec.id = static_cast<sampling::StratumId>(i);
    spec.dist = workload::Gaussian{100.0 * static_cast<double>(i + 1), 10.0};
    spec.rate_per_sec = i == 0
                            ? rate * 0.8
                            : rate * 0.2 / static_cast<double>(kStrata - 1);
    specs.push_back(spec);
  }
  workload::SyntheticStream stream(specs, seed);
  return stream.generate(seconds);
}

void expect_identical_windows(const std::vector<WindowOutput>& sequential,
                              const std::vector<WindowOutput>& sharded) {
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              sharded[i].estimate.window_end_us)
        << "window " << i;
  }
}

TEST(WorkStealing, ForcedStealsMatchSequential) {
  // Satellite acceptance: deliberately tiny deques (capacity 2) + one hot
  // stratum + per-record ingest cost leave the hot channel's backlog to the
  // thieves' steal path — and every window must still see exactly the
  // sequential path's records, because stolen morsels land in mergeable
  // per-slide samplers and the per-channel completion tracker keeps the
  // watermark honest under out-of-order absorption.
  const auto records = make_hot_stream(3.0, 12000.0, 21);
  const auto sequential = run_mode(records, 1, 2);
  const auto sharded = run_mode_with_stats(
      records, 8, 2, [](StreamApproxConfig& c) {
        c.steal_deque_capacity = 2;
        c.ingest_cost = {500};
      });

  EXPECT_GT(sharded.stats.steals, 0u)
      << "the scheduler never redistributed work — the test lost its point";
  // Morsel conservation: every routed batch is absorbed exactly once, by its
  // owner or by one thief, and every routed record reaches a worker.
  const ShardedRunStats& stats = sharded.stats;
  EXPECT_EQ(stats.owner_pops + stats.steals, stats.batches_absorbed);
  EXPECT_EQ(stats.records_absorbed, stats.exchange_records_routed);
  std::uint64_t per_worker = 0;
  for (const std::uint64_t n : stats.per_worker_records) per_worker += n;
  EXPECT_EQ(per_worker, stats.records_absorbed);
  EXPECT_EQ(stats.records_absorbed, records.size());
  EXPECT_EQ(stats.injector_pops, 0u);
  ASSERT_GT(sequential.size(), 2u);
  expect_identical_windows(sequential, sharded.outputs);
}

TEST(WorkStealing, SamplerCountersMatchSequential) {
  // Tiny deques + per-record ingest cost force morsels through the steal
  // path (the recipe above) on the gaussian stream: watermarks, late drops
  // and per-window records_seen must equal the sequential run's, and the
  // sampler counters must show the run path actually ran. On the
  // sequential run no record is late, so every record is counted as
  // accepted or skipped. It reads the same exchange on its own thread, so
  // it reports the same scheduler and exchange counters, with no steals.
  const auto records = make_stream(3.0, 20000.0, 32);
  const auto sequential = run_mode_with_stats(records, 1, 2);
  const ShardedRunStats& sequential_stats = sequential.stats;
  EXPECT_GT(sequential_stats.sampler_bulk_runs, 0u);
  EXPECT_EQ(sequential_stats.sampler_accepts + sequential_stats.sampler_skipped,
            records.size());
  EXPECT_EQ(sequential_stats.records_absorbed, records.size());
  EXPECT_EQ(sequential_stats.exchange_records_routed, records.size());
  ASSERT_EQ(sequential_stats.per_worker_records.size(), 1u);
  EXPECT_EQ(sequential_stats.per_worker_records[0], records.size());
  EXPECT_GT(sequential_stats.batches_absorbed, 0u);
  EXPECT_EQ(sequential_stats.owner_pops, sequential_stats.batches_absorbed);
  EXPECT_EQ(sequential_stats.steals, 0u);
  EXPECT_FALSE(sequential_stats.watermark_lag_us.empty());
  const auto sharded = run_mode_with_stats(
      records, 8, 2, [](StreamApproxConfig& c) {
        c.steal_deque_capacity = 2;
        c.ingest_cost = {500};
      });
  ASSERT_GT(sequential.outputs.size(), 2u);
  expect_identical_windows(sequential.outputs, sharded.outputs);
  const ShardedRunStats& stats = sharded.stats;
  EXPECT_GT(stats.sampler_bulk_runs, 0u);
  EXPECT_GT(stats.sampler_accepts, 0u);
  // Every counted record was absorbed; late-dropped runs may make the sum
  // trail records_absorbed but never exceed it.
  EXPECT_LE(stats.sampler_accepts + stats.sampler_skipped,
            stats.records_absorbed);
  EXPECT_GT(stats.sampler_accepts + stats.sampler_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Sketch sinks: unlike sample-backed estimates (whose sampled counts are
// timing-dependent when sharded), sketch state is merge-EXACT — counter adds,
// register maxes and bucket-count adds commute and associate — so the sharded
// and work-stealing paths must produce answers BIT-IDENTICAL to the
// sequential path, for all three sketch kinds, no matter how the scheduler
// scattered the records.

void register_sketch_suite(StreamApproxConfig& c) {
  sketch::SketchSpec hot;
  hot.kind = sketch::SketchSpec::Kind::kCountMin;
  hot.key = sketch::SketchSpec::KeySource::kStratum;
  hot.top_k = 5;
  c.queries.sketch("hot strata", hot);
  sketch::SketchSpec distinct;
  distinct.kind = sketch::SketchSpec::Kind::kHyperLogLog;
  distinct.key = sketch::SketchSpec::KeySource::kValueInt;
  distinct.epsilon = 0.02;
  c.queries.sketch("distinct values", distinct);
  sketch::SketchSpec quant;
  quant.kind = sketch::SketchSpec::Kind::kQuantile;
  quant.epsilon = 0.02;
  c.queries.sketch("value quantiles", quant, {0.5, 0.9, 0.99});
}

void expect_identical_sketch_answers(
    const std::vector<WindowOutput>& sequential,
    const std::vector<WindowOutput>& sharded) {
  ASSERT_EQ(sequential.size(), sharded.size());
  std::size_t payloads = 0;
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    ASSERT_EQ(sequential[i].queries.size(), sharded[i].queries.size());
    for (std::size_t q = 0; q < sequential[i].queries.size(); ++q) {
      const auto& a = sequential[i].queries[q];
      const auto& b = sharded[i].queries[q];
      ASSERT_EQ(a.name, b.name);
      ASSERT_EQ(a.sketch.has_value(), b.sketch.has_value())
          << "window " << i << " query " << a.name;
      if (!a.sketch.has_value()) continue;
      ++payloads;
      // Bit-identity: the full answer — counts, ranked heavy hitters,
      // distinct estimate and every quantile probe — compares EXACTLY
      // (SketchAnswer::operator== is defaulted member-wise equality,
      // including the doubles).
      EXPECT_TRUE(*a.sketch == *b.sketch)
          << "window " << i << " query " << a.name
          << ": sharded sketch answer diverged from sequential";
    }
  }
  // All three sketches must actually have produced payloads to compare.
  EXPECT_GE(payloads, 3u * (sequential.size() - 1));
}

TEST(SketchEquivalence, ExchangeShardedBitIdenticalToSequential) {
  const auto records = make_hot_stream(3.0, 12000.0, 31);
  const auto sequential = run_mode(records, 1, 2, register_sketch_suite);
  const auto sharded = run_mode(records, 8, 2, register_sketch_suite);
  ASSERT_GT(sequential.size(), 2u);
  expect_identical_sketch_answers(sequential, sharded);
}

TEST(SketchEquivalence, ForcedStealsBitIdenticalToSequential) {
  // Acceptance: tiny deques + a hot stratum + per-record ingest cost force
  // records through the thief path, scrambling which worker digests what.
  // Per-worker sketch state merges exactly at slide close, so even that
  // schedule must reproduce the sequential answers bit for bit.
  const auto records = make_hot_stream(3.0, 12000.0, 32);
  const auto sequential = run_mode(records, 1, 2, register_sketch_suite);
  const auto sharded =
      run_mode_with_stats(records, 8, 2, [](StreamApproxConfig& c) {
        register_sketch_suite(c);
        c.steal_deque_capacity = 2;
        c.ingest_cost = {500};
      });
  EXPECT_GT(sharded.stats.steals, 0u)
      << "the scheduler never redistributed work — the test lost its point";
  ASSERT_GT(sequential.size(), 2u);
  expect_identical_sketch_answers(sequential, sharded.outputs);
}

TEST(ParallelEquivalence, ShardedAdaptiveBudgetStillGrows) {
  const auto records = make_stream(5.0, 30000.0, 11);
  ingest::Broker broker;
  broker.create_topic("input", 4);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config(4);
  config.budget = estimation::QueryBudget::relative_error(0.001);
  StreamApprox system(broker, config);
  std::vector<std::size_t> budgets;
  system.run([&](const WindowOutput& output) {
    budgets.push_back(output.budget_in_force);
  });
  replay.wait();
  ASSERT_GE(budgets.size(), 3u);
  EXPECT_GT(budgets.back(), budgets.front());
}

}  // namespace
}  // namespace streamapprox::core
