// Dynamic query lifecycle: attach_query/detach_query on a RUNNING pipeline.
// The contract under test (see core/pipeline_driver.h):
//   * control operations take effect at the next slide-close boundary;
//   * an attached query reports only windows assembled ENTIRELY after its
//     attach — never a window it observed partially;
//   * a detached query retires with its FeedbackController, the budget is
//     rebuilt (falling back to the config budget when no target remains),
//     and its subscription channel drains then finishes;
//   * the remaining queries are untouched: a sequential run with an
//     attach/detach episode is BIT-IDENTICAL to a never-attached run, and
//     an exchange-sharded run sees identical records_seen with estimates
//     that agree within error bounds (sharded sampled counts are
//     timing-dependent — workers race the merger for the atomic budget — a
//     pre-existing property independent of the registry).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline_driver.h"
#include "core/stream_approx.h"
#include "workload/synthetic.h"

namespace streamapprox::core {
namespace {

using engine::Record;

Record make_record(int i) {
  return Record{static_cast<sampling::StratumId>(i % 3), 1.0 + i % 7,
                i * 1000};
}

/// Offers one record on shard 0.
void offer(PipelineDriver& driver, const Record& record) {
  driver.offer_batch(&record, 1);
}

PipelineDriverConfig driver_config_1s_windows() {
  PipelineDriverConfig config;
  config.window = {1'000'000, 500'000};  // 2 slides per window
  config.queries.aggregate("query", {Aggregation::kMean, false});
  return config;
}

std::vector<Record> gaussian_stream(double seconds, double rate,
                                    std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

// ---------------------------------------------------------------- driver

TEST(DynamicQuery, AttachAppliesAtBoundaryAndSeesOnlyWholeWindows) {
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(driver_config_1s_windows(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });

  for (int i = 0; i < 2000; ++i) offer(driver, make_record(i));  // [0, 2 s)
  driver.advance(2'000'000);  // closes slides 0..3
  ASSERT_EQ(outputs.size(), 3u);  // windows ending at slides 1, 2, 3
  for (const auto& output : outputs) {
    EXPECT_EQ(output.queries.size(), 1u);
  }

  // Queue the attach; it must NOT take effect until a slide closes.
  auto subscription = driver.attach_query(
      std::make_unique<AggregateSink>(
          "extra", QuerySpec{Aggregation::kCount, false}),
      /*subscription_capacity=*/8);
  ASSERT_NE(subscription, nullptr);
  EXPECT_EQ(driver.query_count(), 1u);
  EXPECT_FALSE(subscription->poll().has_value());

  for (int i = 2000; i < 3000; ++i) offer(driver, make_record(i));  // [2, 3 s)
  driver.advance(3'000'000);  // closes slides 4, 5; attach applies at 4
  EXPECT_EQ(driver.query_count(), 2u);

  ASSERT_EQ(outputs.size(), 5u);
  // Window ending at slide 4 ([1.5 s, 2.5 s)) contains slide 3, which the
  // sink never observed: the attached query must not appear yet.
  EXPECT_EQ(outputs[3].queries.size(), 1u);
  // Window ending at slide 5 ([2.0 s, 3.0 s)) is made of slides 4 and 5,
  // both observed: now the attached query reports.
  ASSERT_EQ(outputs[4].queries.size(), 2u);
  EXPECT_EQ(outputs[4].queries[1].name, "extra");

  // The per-query channel carries exactly the whole windows, nothing more.
  auto first = subscription->poll();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->estimate.window_start_us, 2'000'000);
  EXPECT_EQ(first->estimate.window_end_us, 3'000'000);
  EXPECT_EQ(first->records_seen, 1000u);
  ASSERT_EQ(first->queries.size(), 1u);
  EXPECT_EQ(first->queries[0].name, "extra");
  // COUNT of a window the sink fully observed: ~1000 records.
  EXPECT_NEAR(first->queries[0].estimate.overall.estimate, 1000.0, 50.0);
  EXPECT_FALSE(subscription->poll().has_value());
  EXPECT_FALSE(subscription->finished());

  // Detach retires the sink at the next boundary: the window ending at the
  // detach slide no longer includes it, and the channel finishes.
  EXPECT_TRUE(driver.detach_query("extra"));
  EXPECT_FALSE(driver.detach_query("no-such-query"));
  for (int i = 3000; i < 4000; ++i) offer(driver, make_record(i));  // [3, 4 s)
  driver.advance(4'000'000);  // closes slides 6, 7; detach applies at 6
  EXPECT_EQ(driver.query_count(), 1u);
  ASSERT_EQ(outputs.size(), 7u);
  EXPECT_EQ(outputs[5].queries.size(), 1u);
  EXPECT_EQ(outputs[6].queries.size(), 1u);
  EXPECT_FALSE(subscription->poll().has_value());
  EXPECT_TRUE(subscription->finished());
  EXPECT_EQ(subscription->dropped(), 0u);
  driver.finish();
}

TEST(DynamicQuery, SlowConsumerDropsNewestAndAccountsExactly) {
  // A deliberately slow consumer: attach with a tiny channel and never poll
  // while the run progresses. The lifecycle must never block on the full
  // ring — it publishes, drops the NEWEST windows, and counts every drop —
  // so the buffered entries are the OLDEST eligible windows and every
  // eligible window is either delivered or accounted in dropped(). (The
  // ring guarantees AT LEAST the requested capacity — it rounds up — so
  // the exact split is asserted via conservation, not the request.)
  constexpr std::size_t kCapacity = 2;
  std::vector<WindowOutput> outputs;
  std::shared_ptr<QuerySubscription> subscription;
  std::size_t eligible = 0;
  {
    PipelineDriver driver(
        driver_config_1s_windows(),
        [&](const WindowOutput& o) { outputs.push_back(o); });
    subscription = driver.attach_query(
        std::make_unique<AggregateSink>(
            "slow", QuerySpec{Aggregation::kCount, false}),
        kCapacity);
    ASSERT_NE(subscription, nullptr);

    // [0, 5 s): the attach applies at the close of slide 0, so the sink's
    // first whole window ends at slide 1 — every emitted window is eligible.
    for (int i = 0; i < 5000; ++i) offer(driver, make_record(i));
    driver.advance(5'000'000);  // closes slides 0..9 without a single poll
    ASSERT_EQ(outputs.size(), 9u);  // windows ending at slides 1..9
    eligible = outputs.size();

    // The lifecycle thread never blocked: all windows were emitted while
    // the consumer slept, and most of them overflowed the tiny channel.
    EXPECT_GT(subscription->dropped(), 0u);
    EXPECT_LT(subscription->dropped(), eligible);

    driver.finish();
  }  // teardown closes the channel; buffered output survives

  // Drop-newest: what remains buffered is the OLDEST eligible windows, in
  // emission order, starting from the sink's very first whole window.
  std::vector<WindowOutput> drained;
  while (auto output = subscription->poll()) drained.push_back(*output);
  ASSERT_GE(drained.size(), kCapacity);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].estimate.window_end_us,
              1'000'000 + static_cast<std::int64_t>(i) * 500'000)
        << "buffered window " << i << " is not the oldest run";
    ASSERT_EQ(drained[i].queries.size(), 1u);
    EXPECT_EQ(drained[i].queries[0].name, "slow");
  }
  EXPECT_TRUE(subscription->finished());
  // Exact accounting: every eligible window was either delivered or counted
  // as dropped — none vanished, none was double-published.
  EXPECT_EQ(drained.size() + subscription->dropped(), eligible);
}

TEST(DynamicQuery, CancellingAPendingAttachNeverTakesEffect) {
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(driver_config_1s_windows(),
                        [&](const WindowOutput& o) { outputs.push_back(o); });
  auto subscription = driver.attach_query(
      std::make_unique<AggregateSink>("never",
                                      QuerySpec{Aggregation::kSum, false}),
      4);
  // Detach before any slide closed: the pending attach is cancelled and the
  // channel finishes immediately.
  EXPECT_TRUE(driver.detach_query("never"));
  EXPECT_TRUE(subscription->finished());
  for (int i = 0; i < 2000; ++i) offer(driver, make_record(i));
  driver.advance(2'000'000);
  driver.finish();
  EXPECT_EQ(driver.query_count(), 1u);
  for (const auto& output : outputs) EXPECT_EQ(output.queries.size(), 1u);
}

TEST(DynamicQuery, NullSinkAttachesNothing) {
  PipelineDriver driver(driver_config_1s_windows(), [](const WindowOutput&) {});
  // No channel is made for a null sink, so none is left open that no query
  // would ever publish to or close.
  EXPECT_EQ(driver.attach_query(nullptr, 4), nullptr);
  EXPECT_EQ(driver.attach_query(nullptr), nullptr);
  for (int i = 0; i < 2000; ++i) offer(driver, make_record(i));
  driver.advance(2'000'000);
  EXPECT_EQ(driver.query_count(), 1u);  // nothing queued
}

TEST(DynamicQuery, RepeatedDetachRetiresOneQueryOfASharedName) {
  // Names may repeat, and a detach retires the first live match. A second
  // detach of the same name before the boundary is refused rather than
  // queued, so it cannot retire the other query too.
  PipelineDriverConfig config = driver_config_1s_windows();
  config.queries.aggregate("query", {Aggregation::kSum, false}, /*z=*/3.0);
  std::vector<WindowOutput> outputs;
  PipelineDriver driver(config,
                        [&](const WindowOutput& o) { outputs.push_back(o); });
  ASSERT_EQ(driver.query_count(), 2u);
  EXPECT_TRUE(driver.detach_query("query"));
  EXPECT_FALSE(driver.detach_query("query"));
  for (int i = 0; i < 2000; ++i) offer(driver, make_record(i));
  driver.advance(2'000'000);
  EXPECT_EQ(driver.query_count(), 1u);
  ASSERT_FALSE(outputs.empty());
  for (const auto& output : outputs) {
    // The first match (the MEAN at the default z) retired; the SUM at z = 3
    // reports every window.
    ASSERT_EQ(output.queries.size(), 1u);
    EXPECT_DOUBLE_EQ(output.queries[0].z, 3.0);
  }
  // Once the boundary applied the detach, the survivor is addressable.
  EXPECT_TRUE(driver.detach_query("query"));
}

TEST(DynamicQuery, DriverTeardownClosesSubscriptions) {
  std::shared_ptr<QuerySubscription> subscription;
  {
    PipelineDriver driver(driver_config_1s_windows(),
                          [](const WindowOutput&) {});
    subscription = driver.attach_query(
        std::make_unique<AggregateSink>(
            "orphan", QuerySpec{Aggregation::kMean, false}),
        4);
    for (int i = 0; i < 2000; ++i) offer(driver, make_record(i));
    driver.advance(2'000'000);
    EXPECT_FALSE(subscription->finished());  // attached, run still live
  }
  // Buffered outputs stay drainable after teardown, then the channel ends.
  while (subscription->poll().has_value()) {
  }
  EXPECT_TRUE(subscription->finished());
}

TEST(DynamicQuery, OccupancyAwareSamplerShares) {
  PipelineDriver driver(driver_config_1s_windows(), [](const WindowOutput&) {});
  const std::size_t budget = driver.slide_sampler_config(7).total_budget;
  // Flat fallback when occupancy is unknown.
  EXPECT_EQ(driver.slide_sampler_config(7, 1, 4).total_budget, budget / 4);
  // Occupancy-aware: 2 of 3 strata → 2/3 of the budget; 1 of 3 → 1/3.
  EXPECT_EQ(driver.slide_sampler_config(7, 0, 4, 2, 3).total_budget,
            budget * 2 / 3);
  EXPECT_EQ(driver.slide_sampler_config(7, 3, 4, 1, 3).total_budget,
            budget / 3);
  // Degenerate stamps never produce a zero budget.
  EXPECT_GE(driver.slide_sampler_config(7, 2, 4, 1, 4096).total_budget, 1u);
  // The single-shard (sequential / merger) path is untouched.
  EXPECT_EQ(driver.slide_sampler_config(7).total_budget, budget);
}

// ---------------------------------------------------------------- facade

/// Runs a pre-sealed topic (fully loaded before the run, so sequential
/// execution is deterministic) through the facade.
std::vector<WindowOutput> run_sealed(
    const std::vector<Record>& records, std::size_t workers,
    std::size_t partitions,
    const std::function<void(StreamApprox&, const WindowOutput&,
                             std::size_t)>& on_window = {}) {
  ingest::Broker broker;
  broker.create_topic("input", partitions);
  ingest::Producer producer(broker, "input");
  producer.send_batch(records);
  producer.finish();
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  config.workers = workers;
  config.seed = 99;
  config.idle_partition_timeout_ms = 30'000;
  StreamApprox system(broker, config);
  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) {
    outputs.push_back(output);
    if (on_window) on_window(system, output, outputs.size());
  });
  return outputs;
}

TEST(DynamicQuery, SequentialAttachDetachLeavesOthersBitIdentical) {
  // Acceptance: detaching an attached query leaves the remaining queries'
  // records_seen and estimates IDENTICAL to a never-attached run. The topic
  // is sealed before the run, so the sequential path is deterministic and
  // the comparison is exact.
  const auto records = gaussian_stream(5.0, 20000.0, 21);
  const auto baseline = run_sealed(records, 1, 3);

  std::shared_ptr<QuerySubscription> subscription;
  std::int64_t last_end_at_attach = 0;
  const auto episode = run_sealed(
      records, 1, 3,
      [&](StreamApprox& system, const WindowOutput& output,
          std::size_t index) {
        if (index == 2) {
          last_end_at_attach = output.estimate.window_end_us;
          subscription = system.attach_query(
              std::make_unique<AggregateSink>(
                  "extra", QuerySpec{Aggregation::kSum, true}),
              32);
        }
        if (index == 4) {
          EXPECT_EQ(system.query_count(), 2u);
        }
        if (index == 6) system.detach_query("extra");
        if (index == 8) {
          EXPECT_EQ(system.query_count(), 1u);
        }
      });

  ASSERT_GT(baseline.size(), 6u);
  ASSERT_EQ(baseline.size(), episode.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].records_seen, episode[i].records_seen)
        << "window " << i;
    EXPECT_EQ(baseline[i].records_sampled, episode[i].records_sampled)
        << "window " << i;
    EXPECT_EQ(baseline[i].estimate.window_end_us,
              episode[i].estimate.window_end_us);
    EXPECT_DOUBLE_EQ(baseline[i].estimate.overall.estimate,
                     episode[i].estimate.overall.estimate)
        << "window " << i;
    EXPECT_DOUBLE_EQ(baseline[i].estimate.overall.variance,
                     episode[i].estimate.overall.variance)
        << "window " << i;
  }
  // The episode really happened: some windows carried the second query...
  std::size_t with_extra = 0;
  for (const auto& output : episode) {
    if (output.queries.size() == 2) ++with_extra;
  }
  EXPECT_GT(with_extra, 0u);
  EXPECT_LT(with_extra, episode.size());
  // ...and the channel reported only whole post-attach windows.
  ASSERT_NE(subscription, nullptr);
  std::size_t channel_outputs = 0;
  while (auto output = subscription->poll()) {
    EXPECT_GE(output->estimate.window_start_us, last_end_at_attach);
    ASSERT_EQ(output->queries.size(), 1u);
    EXPECT_EQ(output->queries[0].name, "extra");
    ++channel_outputs;
  }
  EXPECT_EQ(channel_outputs, with_extra);
  EXPECT_TRUE(subscription->finished());
}

TEST(DynamicQuery, ExchangeAttachDetachLeavesOthersEquivalent) {
  // The same acceptance on the exchange-sharded path: records_seen stays
  // IDENTICAL per window; estimates agree within summed 3-sigma bounds
  // (sharded sampled counts are timing-dependent — workers race the merger
  // for the atomic budget — so bit-identity is a sequential-only contract;
  // see ParallelEquivalence.EstimatesAgreeWithinErrorBounds).
  const auto records = gaussian_stream(4.0, 20000.0, 22);
  const auto baseline = run_sealed(records, 4, 2);

  std::shared_ptr<QuerySubscription> subscription;
  std::atomic<std::int64_t> last_end_at_attach{0};
  const auto episode = run_sealed(
      records, 4, 2,
      [&](StreamApprox& system, const WindowOutput& output,
          std::size_t index) {
        if (index == 2) {
          last_end_at_attach = output.estimate.window_end_us;
          subscription = system.attach_query(
              std::make_unique<AggregateSink>(
                  "extra", QuerySpec{Aggregation::kCount, false}),
              32);
        }
        if (index == 5) system.detach_query("extra");
      });

  ASSERT_GT(baseline.size(), 5u);
  ASSERT_EQ(baseline.size(), episode.size());
  std::size_t within = 0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].records_seen, episode[i].records_seen)
        << "window " << i;
    EXPECT_EQ(baseline[i].estimate.window_end_us,
              episode[i].estimate.window_end_us);
    const auto& a = baseline[i].estimate.overall;
    const auto& b = episode[i].estimate.overall;
    if (std::abs(a.estimate - b.estimate) <=
        a.error_bound(3.0) + b.error_bound(3.0)) {
      ++within;
    }
  }
  EXPECT_GE(within, baseline.size() - 1);  // slack for a tiny edge window
  // Whole-window guarantee holds under sharding too.
  ASSERT_NE(subscription, nullptr);
  std::size_t channel_outputs = 0;
  while (auto output = subscription->poll()) {
    EXPECT_GE(output->estimate.window_start_us, last_end_at_attach.load());
    ++channel_outputs;
  }
  EXPECT_GT(channel_outputs, 0u);
  EXPECT_TRUE(subscription->finished());
}

TEST(DynamicQuery, DetachOnlyTargetedQueryFallsBackToConfigBudget) {
  // A dynamically attached query with a strict accuracy target inflates the
  // shared budget (strictest query wins); detaching it must retire its
  // controller and let the budget fall back to the config default — here a
  // 20% sampling fraction resolved per slide by the cost function. The
  // sequential path is deterministic, so the post-detach budgets match a
  // never-attached run exactly.
  const auto records = gaussian_stream(6.0, 20000.0, 23);
  const auto run_fraction_budget =
      [&](const std::function<void(StreamApprox&, std::size_t)>& hook) {
        ingest::Broker broker;
        broker.create_topic("input", 3);
        ingest::Producer producer(broker, "input");
        producer.send_batch(records);
        producer.finish();
        StreamApproxConfig config;
        config.topic = "input";
        config.window = {1'000'000, 500'000};
        config.budget = estimation::QueryBudget::fraction(0.20);
        config.queries.aggregate("query", {Aggregation::kMean, false});
        config.seed = 7;
        StreamApprox system(broker, config);
        std::vector<std::size_t> budgets;
        system.run([&](const WindowOutput& output) {
          budgets.push_back(output.budget_in_force);
          if (hook) hook(system, budgets.size());
        });
        return budgets;
      };

  const auto baseline = run_fraction_budget({});
  const auto budgets =
      run_fraction_budget([&](StreamApprox& system, std::size_t index) {
        if (index == 2) {
          system.attach_query(std::make_unique<AggregateSink>(
              "strict", QuerySpec{Aggregation::kMean, false}));
          // The attach above carries no target; give the second one an
          // explicit target to exercise both shapes.
          auto targeted = std::make_unique<AggregateSink>(
              "tight", QuerySpec{Aggregation::kSum, false});
          targeted->set_accuracy_target(1e-5);
          system.attach_query(std::move(targeted));
        }
        if (index == 6) {
          system.detach_query("strict");
          system.detach_query("tight");
        }
      });
  ASSERT_GT(budgets.size(), 8u);
  ASSERT_EQ(baseline.size(), budgets.size());

  // While "tight" was attached its controller inflated the budget...
  std::size_t peak = 0;
  for (const auto budget : budgets) peak = std::max(peak, budget);
  std::size_t baseline_peak = 0;
  for (const auto budget : baseline) {
    baseline_peak = std::max(baseline_peak, budget);
  }
  EXPECT_GT(peak, baseline_peak * 2);
  // ...and after the detach the budget falls back to the fraction-derived
  // default: identical to the never-attached run's tail (the sequential
  // path is deterministic).
  for (std::size_t i = 8; i < budgets.size(); ++i) {
    EXPECT_EQ(budgets[i], baseline[i]) << "window " << i;
  }
}

TEST(DynamicQuery, AttachDuringIdlePartitionStallAppliesOnResume) {
  // 2 partitions; partition 1 never delivers. Once the first burst is
  // consumed the pipeline stalls (nothing left to close). An attach issued
  // DURING the stall must neither deadlock nor apply early — it takes
  // effect at the first slide close after the stream resumes, and the new
  // query sees only whole windows from the resumed region.
  ingest::Broker broker;
  auto& topic = broker.create_topic("input", 2);
  for (int i = 0; i < 3000; ++i) {
    topic.partition(0).append(Record{0, 1.0, i * 1000});  // [0, 3 s)
  }
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  config.idle_partition_timeout_ms = 100;
  StreamApprox system(broker, config);

  std::atomic<std::size_t> windows{0};
  std::thread runner([&] {
    system.run([&](const WindowOutput&) { windows.fetch_add(1); });
  });
  // The burst closes slides 0..4 (the watermark rests at 2.999 s) and then
  // stalls with slide 5 ([2.5 s, 3.0 s)) open: 4 windows.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (windows.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(windows.load(), 4u) << "no windows before the stall";

  // The stream is now stalled (burst consumed, partition 1 idle): attach.
  auto subscription = system.attach_query(
      std::make_unique<AggregateSink>("late",
                                      QuerySpec{Aggregation::kCount, false}),
      32);
  ASSERT_NE(subscription, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(subscription->poll().has_value());  // nothing closed yet

  // Resume with live records at [3 s, 6 s) and seal.
  for (int i = 0; i < 3000; ++i) {
    topic.partition(0).append(Record{0, 2.0, 3'000'000 + i * 1000});
  }
  topic.seal();
  runner.join();

  // The attach applied at the first post-resume slide close (slide 5), so
  // the earliest whole window the new query may report is [2.5 s, 3.5 s) —
  // the window whose slides all closed after the attach.
  std::size_t channel_outputs = 0;
  while (auto output = subscription->poll()) {
    EXPECT_GE(output->estimate.window_start_us, 2'500'000);
    ++channel_outputs;
  }
  EXPECT_GT(channel_outputs, 0u);
  EXPECT_TRUE(subscription->finished());
}

TEST(DynamicQuery, PreRunControlPlaneFollowsDriverRules) {
  ingest::Broker broker;
  broker.create_topic("input", 1);
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  {
    StreamApprox system(broker, config);
    // Before run() the facade forwards to the next run's driver, whose count
    // is boundary-applied: the configured set until that run closes a slide.
    EXPECT_EQ(system.query_count(), 1u);
    auto subscription = system.attach_query(
        std::make_unique<AggregateSink>(
            "pre", QuerySpec{Aggregation::kSum, false}),
        4);
    EXPECT_EQ(system.query_count(), 1u);
    // Cancelling a queued attach closes its channel at once.
    EXPECT_TRUE(system.detach_query("pre"));
    EXPECT_TRUE(subscription->finished());
    EXPECT_FALSE(system.detach_query("pre"));  // cancelled, so unknown now
    // A config-registered query is addressable pre-run by its name — once:
    // a repeated detach of a queued one is refused.
    EXPECT_TRUE(system.detach_query("query"));
    EXPECT_FALSE(system.detach_query("query"));
    EXPECT_EQ(system.query_count(), 1u);
    EXPECT_FALSE(system.detach_query("no-such-query"));
  }
  // A pre-run attach discarded with the facade (run never started) must
  // still release its consumer.
  std::shared_ptr<QuerySubscription> orphan;
  {
    StreamApprox system(broker, config);
    orphan = system.attach_query(
        std::make_unique<AggregateSink>(
            "orphan", QuerySpec{Aggregation::kMean, false}),
        4);
    EXPECT_FALSE(orphan->finished());
  }
  EXPECT_TRUE(orphan->finished());
}

TEST(DynamicQuery, PreRunOperationsApplyAtTheRunsFirstSlideClose) {
  const auto records = gaussian_stream(4.0, 20000.0, 25);
  ingest::Broker broker;
  broker.create_topic("input", 3);
  ingest::Producer producer(broker, "input");
  producer.send_batch(records);
  producer.finish();
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  config.queries.aggregate("kept", {Aggregation::kSum, false});
  StreamApprox system(broker, config);
  auto subscription = system.attach_query(
      std::make_unique<AggregateSink>("pre",
                                      QuerySpec{Aggregation::kCount, false}),
      64);
  ASSERT_NE(subscription, nullptr);
  EXPECT_TRUE(system.detach_query("query"));

  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) { outputs.push_back(output); });
  ASSERT_GT(outputs.size(), 3u);
  // Both operations applied before the run's first slide: the detached
  // config query reports no window, the queued attach every one.
  for (const auto& output : outputs) {
    ASSERT_EQ(output.queries.size(), 2u);
    EXPECT_EQ(output.queries[0].name, "kept");
    EXPECT_EQ(output.queries[1].name, "pre");
  }
  std::size_t channel_outputs = 0;
  while (auto output = subscription->poll()) {
    ASSERT_LT(channel_outputs, outputs.size());
    EXPECT_EQ(output->estimate.window_end_us,
              outputs[channel_outputs].estimate.window_end_us);
    ++channel_outputs;
  }
  EXPECT_EQ(channel_outputs, outputs.size());
  EXPECT_EQ(subscription->dropped(), 0u);
  // The channel finished with the run, and the operations were one-shot:
  // the next run starts from the configured set again.
  EXPECT_TRUE(subscription->finished());
  EXPECT_EQ(system.query_count(), 2u);
}

TEST(DynamicQuery, AttachDetachStormUnderExchangeSharding) {
  // Control-plane storm while the exchange-sharded pipeline runs: a
  // background thread attaches and detaches queries as fast as it can.
  // Nothing here asserts timing — the test's value is that the run
  // completes with coherent outputs under ASan/TSan.
  const auto records = gaussian_stream(4.0, 30000.0, 24);
  ingest::Broker broker;
  broker.create_topic("input", 2);
  ingest::Producer producer(broker, "input");
  producer.send_batch(records);
  producer.finish();
  StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {Aggregation::kMean, false});
  config.workers = 4;
  config.idle_partition_timeout_ms = 30'000;
  StreamApprox system(broker, config);

  std::atomic<bool> done{false};
  std::thread stormer([&] {
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string name = "storm-" + std::to_string(i % 4);
      auto subscription = system.attach_query(
          std::make_unique<AggregateSink>(
              name, QuerySpec{Aggregation::kCount, false}),
          8);
      while (subscription && subscription->poll().has_value()) {
      }
      system.detach_query(name);
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<WindowOutput> outputs;
  system.run([&](const WindowOutput& output) { outputs.push_back(output); });
  done.store(true, std::memory_order_release);
  stormer.join();

  ASSERT_GT(outputs.size(), 3u);
  for (const auto& output : outputs) {
    EXPECT_GE(output.queries.size(), 1u);
    EXPECT_EQ(output.queries[0].name, "query");  // the static query survives
    EXPECT_GT(output.records_seen, 0u);
  }
}

}  // namespace
}  // namespace streamapprox::core
