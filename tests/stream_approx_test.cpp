// Tests for the StreamApprox facade: live broker consumption, window
// outputs with error bounds, budget kinds, adaptive feedback.
#include "core/stream_approx.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ingest/replay.h"
#include "workload/synthetic.h"

namespace streamapprox::core {
namespace {

std::vector<engine::Record> make_stream(double seconds, double rate,
                                        std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

StreamApproxConfig base_config() {
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  // Idleness is not under test here and every stream is replayed-and-sealed;
  // a generous grace keeps a starved replay thread on a loaded CI box from
  // tripping the idleness rule mid-stream.
  config.idle_partition_timeout_ms = 30'000;
  return config;
}

TEST(StreamApprox, RequiresExistingTopic) {
  ingest::Broker broker;
  EXPECT_THROW(StreamApprox(broker, base_config()), std::out_of_range);
}

TEST(StreamApprox, RejectsZeroPollBatch) {
  // A zero-record poll is a misconfiguration: construction refuses it
  // rather than let the exchange round it up to one record. Both poll sizes
  // are checked whatever the worker count.
  ingest::Broker broker;
  broker.create_topic("input", 1);
  auto config = base_config();
  config.poll_batch = 0;
  EXPECT_THROW(StreamApprox(broker, config), std::invalid_argument);
  config.poll_batch = 1;
  EXPECT_NO_THROW(StreamApprox(broker, config));
  config.exchange_batch_size = 0;
  EXPECT_THROW(StreamApprox(broker, config), std::invalid_argument);
  config.exchange_batch_size = 1;
  EXPECT_NO_THROW(StreamApprox(broker, config));
}

TEST(StreamApprox, ProducesWindowsWithBounds) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(4.0, 20000.0, 1);
  ingest::ReplayTool replay(broker, "input", records, {});
  StreamApprox system(broker, base_config());
  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) { outputs.push_back(output); });
  replay.wait();

  ASSERT_GE(outputs.size(), 5u);
  for (const auto& output : outputs) {
    EXPECT_GT(output.records_seen, 0u);
    EXPECT_GT(output.records_sampled, 0u);
    EXPECT_LE(output.records_sampled, output.records_seen);
    EXPECT_GT(output.estimate.overall.estimate, 0.0);
  }
}

TEST(StreamApprox, MeanWithinErrorBoundMostWindows) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(5.0, 20000.0, 2);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.budget = estimation::QueryBudget::fraction(0.5);
  StreamApprox system(broker, config);
  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) { outputs.push_back(output); });
  replay.wait();
  ASSERT_FALSE(outputs.empty());

  // Each interval estimates its own window's mean, which drifts from the
  // generating mix's mean (about 3670) with the stream's own noise. The
  // oracle is therefore each window's exact mean over the same records.
  std::map<std::int64_t, WindowEstimate> exact;
  for (const auto& truth :
       evaluate_windows(exact_window_results(records, config.window),
                        {Aggregation::kMean, false})) {
    exact.emplace(truth.window_end_us, truth);
  }
  int within = 0;
  for (const auto& output : outputs) {
    const auto it = exact.find(output.estimate.window_end_us);
    ASSERT_NE(it, exact.end())
        << "no exact window ends at " << output.estimate.window_end_us;
    // Each partition replays in event-time order and the watermark waits
    // for every partition, so no record is late: each reaches its window.
    EXPECT_EQ(output.records_seen, it->second.overall.population)
        << "window ending " << output.estimate.window_end_us;
    if (output.estimate.overall.interval(3.0).contains(
            it->second.overall.estimate)) {
      ++within;
    }
  }
  // 3-sigma intervals should cover nearly always. The bar leaves room for
  // one unlucky window: the first windows draw the same sample in every run,
  // so a miss there repeats rather than averaging out.
  EXPECT_GE(static_cast<double>(within) / static_cast<double>(outputs.size()),
            0.7);
}

TEST(StreamApprox, FractionBudgetControlsSampleSize) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(4.0, 20000.0, 3);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.budget = estimation::QueryBudget::fraction(0.1);
  StreamApprox system(broker, config);
  std::uint64_t seen = 0;
  std::uint64_t sampled = 0;
  system.run([&](const WindowOutput& output) {
    seen += output.records_seen;
    sampled += output.records_sampled;
  });
  replay.wait();
  ASSERT_GT(seen, 0u);
  // After the first adaptation, the sampled share should be near 10%.
  const double fraction = static_cast<double>(sampled) / seen;
  EXPECT_LT(fraction, 0.25);
}

TEST(StreamApprox, AccuracyBudgetAdaptsBudgetUpward) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  // High-variance stream + tight accuracy target => budget must grow from
  // its initial 1024.
  const auto records = make_stream(6.0, 30000.0, 4);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
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

TEST(StreamApprox, MultiQueryRegistrySharesOneSampledStream) {
  // Three registered queries (mixed aggregations, one per-stratum, one
  // histogram) over one topic: every window output carries all three
  // results, and the sampling counters equal a single-query run's — the
  // stream is consumed and sampled exactly once.
  const auto records = make_stream(4.0, 20000.0, 6);

  const auto run = [&](const std::function<void(StreamApproxConfig&)>& mutate) {
    ingest::Broker broker;
    broker.create_topic("input", 3);
    ingest::ReplayTool replay(broker, "input", records, {});
    auto config = base_config();
    config.queries = QuerySet{};
    mutate(config);
    StreamApprox system(broker, config);
    std::vector<WindowOutput> outputs;
    system.run([&](const WindowOutput& output) { outputs.push_back(output); });
    replay.wait();
    return outputs;
  };

  const auto multi = run([](StreamApproxConfig& config) {
    config.queries.aggregate("sum by substream", {Aggregation::kSum, true});
    config.queries.aggregate("overall mean", {Aggregation::kMean, false});
    config.queries.histogram("values", {0.0, 12000.0, 24});
  });
  const auto single = run([](StreamApproxConfig& config) {
    config.queries.aggregate("overall mean", {Aggregation::kMean, false});
  });

  ASSERT_GE(multi.size(), 5u);
  ASSERT_EQ(multi.size(), single.size());
  for (std::size_t i = 0; i < multi.size(); ++i) {
    ASSERT_EQ(multi[i].queries.size(), 3u);
    EXPECT_EQ(multi[i].queries[0].name, "sum by substream");
    EXPECT_FALSE(multi[i].queries[0].estimate.groups.empty());
    EXPECT_TRUE(multi[i].queries[1].estimate.groups.empty());
    EXPECT_TRUE(multi[i].queries[2].histogram.has_value());
    // Sampled once: every record is SEEN exactly once per window whether 1
    // or 3 queries are registered. (Sampled counts and estimates are
    // compared bit-exactly in pipeline_driver_test, which drives the driver
    // deterministically; through the live broker the moment a slide's
    // sampler picks up the adapting budget is poll-timing-dependent.)
    EXPECT_EQ(multi[i].records_seen, single[i].records_seen) << "window " << i;
    EXPECT_EQ(multi[i].estimate.window_end_us, single[i].estimate.window_end_us)
        << "window " << i;
    // The two runs estimate the same window mean: agreement within summed
    // 3-sigma bounds.
    const auto& a = multi[i].queries[1].estimate.overall;
    const auto& b = single[i].queries[0].estimate.overall;
    EXPECT_LE(std::abs(a.estimate - b.estimate),
              a.error_bound(3.0) + b.error_bound(3.0))
        << "window " << i;
  }
}

TEST(StreamApprox, PerStratumQuery) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  const auto records = make_stream(3.0, 20000.0, 5);
  ingest::ReplayTool replay(broker, "input", records, {});
  auto config = base_config();
  config.queries = QuerySet{};
  config.queries.aggregate("query", {Aggregation::kMean, true});
  StreamApprox system(broker, config);
  std::size_t windows_with_all_groups = 0;
  std::size_t total = 0;
  system.run([&](const WindowOutput& output) {
    ++total;
    if (output.estimate.groups.size() == 3) ++windows_with_all_groups;
  });
  replay.wait();
  ASSERT_GT(total, 0u);
  EXPECT_EQ(windows_with_all_groups, total);  // no sub-stream overlooked
}

/// Runs a pre-sealed topic through the facade, so runs are deterministic.
/// `on_window` sees the system and the 1-based index of every window.
std::vector<WindowOutput> run_sealed(
    const std::vector<engine::Record>& records, StreamApproxConfig config,
    const std::function<void(StreamApprox&, std::size_t)>& on_window = {}) {
  ingest::Broker broker;
  broker.create_topic("input", 3);
  ingest::Producer producer(broker, "input");
  producer.send_batch(records);
  producer.finish();
  StreamApprox system(broker, std::move(config));
  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) {
    outputs.push_back(output);
    if (on_window) on_window(system, outputs.size());
  });
  return outputs;
}

/// base_config with no query registered.
StreamApproxConfig empty_registry_config(std::size_t workers) {
  auto config = base_config();
  config.queries = QuerySet{};
  config.workers = workers;
  return config;
}

TEST(StreamApprox, EmptyRegistryEmitsWindowsInBothModes) {
  // No query registered: windows still flow with their sampling counters
  // and bounds in both execution modes, and carry no query output.
  const auto records = make_stream(3.0, 20000.0, 41);
  const auto sequential = run_sealed(records, empty_registry_config(1));
  const auto sharded = run_sealed(records, empty_registry_config(2));
  ASSERT_GT(sequential.size(), 3u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    for (const WindowOutput* output : {&sequential[i], &sharded[i]}) {
      EXPECT_TRUE(output->queries.empty()) << "window " << i;
      EXPECT_GT(output->records_seen, 0u) << "window " << i;
      EXPECT_GT(output->records_sampled, 0u) << "window " << i;
      EXPECT_EQ(output->estimate.window_end_us -
                    output->estimate.window_start_us,
                1'000'000)
          << "window " << i;
    }
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              sharded[i].estimate.window_end_us)
        << "window " << i;
  }
}

TEST(StreamApprox, EmptyRegistryFractionBudgetFollowsCostFunction) {
  // No accuracy target anywhere: the cost function sizes each slide from
  // the last closed slide's arrivals, budget = ceil(0.2 · seen).
  constexpr std::int64_t kSlideUs = 500'000;
  const auto records = make_stream(3.0, 20000.0, 42);
  std::map<std::int64_t, std::uint64_t> seen_per_slide;
  for (const auto& record : records) {
    ++seen_per_slide[record.event_time_us / kSlideUs];
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    auto config = empty_registry_config(workers);
    config.budget = estimation::QueryBudget::fraction(0.2);
    const auto outputs = run_sealed(records, config);
    ASSERT_GT(outputs.size(), 3u);
    for (const auto& output : outputs) {
      // The window ending with slide s is emitted before slide s feeds the
      // cost function, so the budget in force came from slide s - 1.
      const std::int64_t previous =
          output.estimate.window_end_us / kSlideUs - 2;
      const auto it = seen_per_slide.find(previous);
      const double seen =
          it == seen_per_slide.end() ? 0.0 : static_cast<double>(it->second);
      EXPECT_EQ(output.budget_in_force,
                std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::ceil(0.2 * seen))))
          << "workers=" << workers << " window ending "
          << output.estimate.window_end_us;
    }
  }
}

TEST(StreamApprox, LatencyBudgetScalesWithWorkers) {
  // A 2 ms latency budget allows 1000 records/ms per worker: 2000 records
  // per slide on one worker, 8000 on four. Every 0.5 s slide carries about
  // 10 000 arrivals, more than either allows, so each window reads the
  // capacity sized from its previous slide.
  const auto records = make_stream(3.0, 20000.0, 44);
  for (const auto& [workers, capacity] :
       {std::pair<std::size_t, std::size_t>{1, 2000}, {4, 8000}}) {
    auto config = base_config();
    config.workers = workers;
    config.budget = estimation::QueryBudget::latency_ms(2.0);
    const auto outputs = run_sealed(records, config);
    ASSERT_GT(outputs.size(), 3u) << "workers=" << workers;
    for (const auto& output : outputs) {
      EXPECT_EQ(output.budget_in_force, capacity)
          << "workers=" << workers << " window ending "
          << output.estimate.window_end_us;
    }
  }
}

TEST(StreamApprox, EmptyRegistryAccuracyBudgetWaitsForAttachedController) {
  // An accuracy budget needs a feedback controller, and only a query brings
  // one: with an empty registry the budget holds its initial value until a
  // query attached mid-run inherits the target. That query reports from its
  // first whole window on.
  const std::size_t initial_budget = PipelineDriverConfig{}.initial_budget;
  const auto records = make_stream(6.0, 30000.0, 43);
  constexpr std::size_t kAttachAt = 3;  // 1-based window index
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    auto config = empty_registry_config(workers);
    config.budget = estimation::QueryBudget::relative_error(0.001);
    const auto outputs = run_sealed(
        records, config, [](StreamApprox& system, std::size_t index) {
          if (index == kAttachAt) {
            system.attach_query(std::make_unique<AggregateSink>(
                "mean", QuerySpec{Aggregation::kMean, false}));
          }
        });
    // The attach applies when the next slide closes, so the query's first
    // whole window ends one slide later: 0-based index kAttachAt + 1.
    const std::size_t first_whole = kAttachAt + 1;
    ASSERT_GT(outputs.size(), first_whole + 2);
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (i < first_whole) {
        EXPECT_TRUE(outputs[i].queries.empty())
            << "workers=" << workers << " window " << i;
      } else {
        ASSERT_EQ(outputs[i].queries.size(), 1u)
            << "workers=" << workers << " window " << i;
        EXPECT_EQ(outputs[i].queries[0].name, "mean");
      }
      // The first whole window's bound is the controller's first input.
      if (i <= first_whole) {
        EXPECT_EQ(outputs[i].budget_in_force, initial_budget)
            << "workers=" << workers << " window " << i;
      }
    }
    EXPECT_GT(outputs.back().budget_in_force, initial_budget)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace streamapprox::core
