// Tests for the skip-ahead sampling kernel: statistical equivalence of the
// bulk offer path with per-record Algorithm R (every stream position sampled
// with probability N/i), exact re-priming after shrink, bit-exact OASRS
// bookkeeping (seen / weight / sample size) against per-stratum Algorithm R
// references, the driver's per-slide absorb path over runs that straddle
// slides, and the ShardedRunStats kernel counters on the sequential and the
// forced-steal sharded paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "core/stream_approx.h"
#include "ingest/replay.h"
#include "sampling/oasrs.h"
#include "sampling/reservoir.h"
#include "workload/synthetic.h"

namespace streamapprox {
namespace {

using sampling::FastReservoirSampler;
using sampling::ReservoirSampler;

// The per-record offer() and the bulk offer_run() walk the identical
// (prime, accept-slot, advance) RNG sequence — skipped records draw nothing
// either way — so chunked bulk offers are BIT-identical to per-record
// offers, not merely distribution-identical.
TEST(SkipAheadKernel, OfferRunMatchesPerRecordOffer) {
  constexpr std::size_t kCapacity = 32;
  constexpr int kStream = 5000;
  std::vector<int> stream(kStream);
  for (int i = 0; i < kStream; ++i) stream[i] = i;

  FastReservoirSampler<int> per_record(kCapacity, 77);
  FastReservoirSampler<int> bulk(kCapacity, 77);
  for (int x : stream) per_record.offer(x);
  // Ragged chunk sizes cross the fill boundary and land acceptances both at
  // chunk edges and interiors.
  const std::size_t chunks[] = {7, 64, 1, 130, 3, 500};
  std::size_t i = 0, c = 0;
  while (i < stream.size()) {
    const std::size_t n =
        std::min(chunks[c++ % 6], stream.size() - i);
    bulk.offer_run(stream.data() + i, n);
    i += n;
  }
  EXPECT_EQ(per_record.seen(), bulk.seen());
  EXPECT_EQ(per_record.items(), bulk.items());
  EXPECT_DOUBLE_EQ(per_record.weight(), bulk.weight());
}

// Selection uniformity under the bulk kernel: every one of 2000 stream
// positions must land in the sample with probability N/n. Positions are
// bucketed 20-wide; chi-square with 99 dof, alpha=0.001 critical ~148.2.
TEST(SkipAheadKernel, BulkSelectionIsUniform) {
  constexpr int kStream = 2000;
  constexpr std::size_t kCapacity = 50;
  constexpr int kTrials = 1000;
  constexpr int kBuckets = 100;
  constexpr int kWidth = kStream / kBuckets;
  std::vector<int> stream(kStream);
  for (int i = 0; i < kStream; ++i) stream[i] = i;
  std::vector<double> hits(kBuckets, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    FastReservoirSampler<int> reservoir(kCapacity, 31000 + t);
    for (int i = 0; i < kStream; i += 64) {
      reservoir.offer_run(stream.data() + i,
                          std::min<std::size_t>(64, kStream - i));
    }
    for (int item : reservoir.items()) hits[item / kWidth] += 1.0;
  }
  const std::vector<double> expected(
      kBuckets,
      kTrials * static_cast<double>(kCapacity) / kBuckets);
  EXPECT_LT(chi_square(hits, expected), 148.2);
}

// shrink_capacity invalidates the skip state; the next saturated offer
// re-primes it from the exact conditional law W ~ Beta(k, s-k+1). If the
// re-prime were biased (e.g. the naive w=1 restart), positions right after
// the shrink would be systematically over-selected. Chi-square as above.
TEST(SkipAheadKernel, ShrinkRePrimeKeepsSelectionUniform) {
  constexpr int kStream = 2000;  // 1000 before the shrink, 1000 after
  constexpr int kTrials = 2000;
  constexpr int kBuckets = 100;
  constexpr int kWidth = kStream / kBuckets;
  std::vector<int> stream(kStream);
  for (int i = 0; i < kStream; ++i) stream[i] = i;
  std::vector<double> hits(kBuckets, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    FastReservoirSampler<int> reservoir(64, 64000 + t);
    reservoir.offer_run(stream.data(), 1000);
    reservoir.shrink_capacity(16);
    reservoir.offer_run(stream.data() + 1000, 1000);
    EXPECT_EQ(reservoir.seen(), 2000u);
    EXPECT_EQ(reservoir.items().size(), 16u);
    for (int item : reservoir.items()) hits[item / kWidth] += 1.0;
  }
  const std::vector<double> expected(
      kBuckets, kTrials * 16.0 / kBuckets);
  EXPECT_LT(chi_square(hits, expected), 148.2);
}

// Full counter parity with ReservoirSampler across the operations OASRS
// exercises: take_items, reset(new_capacity), shrink, zero capacity, merge.
TEST(SkipAheadKernel, CountersMatchAlgorithmRSemantics) {
  ReservoirSampler<int> r(8, 1);
  FastReservoirSampler<int> l(8, 1);
  for (int i = 0; i < 100; ++i) {
    r.offer(i);
    l.offer(i);
  }
  EXPECT_EQ(l.seen(), r.seen());
  EXPECT_EQ(l.items().size(), r.items().size());
  EXPECT_DOUBLE_EQ(l.weight(), r.weight());

  auto taken_r = r.take_items();
  auto taken_l = l.take_items();
  EXPECT_EQ(taken_l.size(), taken_r.size());
  EXPECT_EQ(l.seen(), r.seen());  // counters survive the take
  EXPECT_TRUE(l.items().empty());

  r.reset(4);
  l.reset(4);
  EXPECT_EQ(l.seen(), 0u);
  EXPECT_EQ(l.capacity(), 4u);
  for (int i = 0; i < 50; ++i) {
    r.offer(i);
    l.offer(i);
  }
  r.shrink_capacity(2);
  l.shrink_capacity(2);
  EXPECT_EQ(l.items().size(), 2u);
  EXPECT_EQ(l.seen(), 50u);
  EXPECT_DOUBLE_EQ(l.weight(), 25.0);
  // Sampling continues cleanly after the shrink (re-prime path).
  for (int i = 50; i < 200; ++i) l.offer(i);
  EXPECT_EQ(l.seen(), 200u);
  EXPECT_EQ(l.items().size(), 2u);

  FastReservoirSampler<int> zero(0, 2);
  int payload = 1;
  zero.offer(payload);
  zero.offer_run(&payload, 1);
  EXPECT_EQ(zero.seen(), 2u);
  EXPECT_TRUE(zero.items().empty());

  FastReservoirSampler<int> a(10, 3);
  FastReservoirSampler<int> b(10, 4);
  for (int i = 0; i < 100; ++i) a.offer(i);
  for (int i = 100; i < 150; ++i) b.offer(i);
  a.merge(b);
  EXPECT_EQ(a.seen(), 150u);
  EXPECT_EQ(a.items().size(), 10u);
  for (int i = 150; i < 400; ++i) a.offer(i);  // re-prime after merge
  EXPECT_EQ(a.seen(), 400u);
  EXPECT_EQ(a.items().size(), 10u);
}

// The consuming merge overload draws the same randomness as the copying one
// (so either call site gets the identical merged sample) and moves the
// donor's items instead of copying them.
TEST(SkipAheadKernel, ConsumingMergeMatchesCopyingMerge) {
  const auto fill = [](auto& reservoir, int from, int to) {
    for (int i = from; i < to; ++i) reservoir.offer(i);
  };
  ReservoirSampler<int> a1(12, 5), a2(12, 5), b1(12, 6), b2(12, 6);
  fill(a1, 0, 300);
  fill(a2, 0, 300);
  fill(b1, 300, 500);
  fill(b2, 300, 500);
  a1.merge(b1);             // copying
  a2.merge(std::move(b2));  // consuming
  EXPECT_EQ(a1.items(), a2.items());
  EXPECT_EQ(a1.seen(), a2.seen());
  EXPECT_FALSE(b1.items().empty());  // copy preserved the donor
  EXPECT_TRUE(b2.items().empty());   // move consumed it
}

std::vector<engine::Record> stratified_stream(int n) {
  // 4 strata in blocks of 64 — the run shape the exchange produces.
  std::vector<engine::Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    records.push_back(engine::Record{
        static_cast<sampling::StratumId>((i / 64) % 4),
        static_cast<double>(i), static_cast<std::int64_t>(i) * 100});
  }
  return records;
}

// OASRS bookkeeping exactness: every per-stratum C_i, weight, sample SIZE
// (min(capacity, C_i) — deterministic for either algorithm), stratum
// discovery order, and the interval counter equal those of per-stratum
// Algorithm R references that re-split the budget on discovery the way
// OASRS does. Only sample MEMBERSHIP is allowed to differ.
TEST(SkipAheadOasrs, CountersMatchAlgorithmRPath) {
  constexpr std::size_t kBudget = 128;
  const auto records = stratified_stream(20000);
  sampling::OasrsConfig config;
  config.total_budget = kBudget;
  config.seed = 42;
  auto fast = sampling::make_oasrs<engine::Record>(config);
  fast.offer_batch(records);

  std::vector<sampling::StratumId> order;
  std::unordered_map<sampling::StratumId, ReservoirSampler<engine::Record>>
      exact;
  for (const auto& record : records) {
    auto it = exact.find(record.stratum);
    if (it == exact.end()) {
      order.push_back(record.stratum);
      const std::size_t share = kBudget / order.size();
      for (auto& [id, reservoir] : exact) reservoir.shrink_capacity(share);
      it = exact
               .emplace(record.stratum,
                        ReservoirSampler<engine::Record>(share, order.size()))
               .first;
    }
    it->second.offer(record);
  }

  EXPECT_EQ(fast.interval_seen(), 20000u);
  EXPECT_EQ(fast.stratum_count(), order.size());
  const auto a = fast.take();
  ASSERT_EQ(a.strata.size(), order.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    const auto& reference = exact.at(order[i]);
    EXPECT_EQ(a.strata[i].stratum, order[i]);
    EXPECT_EQ(a.strata[i].seen, reference.seen());
    EXPECT_EQ(a.strata[i].items.size(), reference.items().size());
    EXPECT_DOUBLE_EQ(a.strata[i].weight, reference.weight());
  }
  EXPECT_EQ(fast.interval_seen(), 0u);  // take() resets the running counter
}

// interval_seen() stays exact through merge (running counter, not map walk).
TEST(SkipAheadOasrs, IntervalSeenTracksOfferAndMerge) {
  sampling::OasrsConfig config;
  config.per_stratum_capacity = 16;
  auto a = sampling::make_oasrs<engine::Record>(config);
  auto b = sampling::make_oasrs<engine::Record>(config);
  const auto records = stratified_stream(1000);
  a.offer_batch(records.data(), 600);
  b.offer_batch(records.data() + 600, 400);
  EXPECT_EQ(a.interval_seen(), 600u);
  EXPECT_EQ(b.interval_seen(), 400u);
  a.merge(b);
  EXPECT_EQ(a.interval_seen(), 1000u);
}

// The known-stratum offer_run path (what offer_batch feeds with each
// maximal same-stratum run) is bit-identical to per-record offer(): same
// reservoirs, same RNG order.
TEST(SkipAheadOasrs, OfferRunMatchesPerRecordOffer) {
  const auto records = stratified_stream(8000);
  sampling::OasrsConfig config;
  config.total_budget = 96;
  config.seed = 9;
  auto per_record = sampling::make_oasrs<engine::Record>(config);
  auto via_runs = sampling::make_oasrs<engine::Record>(config);
  for (const auto& r : records) per_record.offer(r);
  for (std::size_t i = 0; i < records.size(); i += 64) {
    via_runs.offer_run(records[i].stratum, records.data() + i, 64);
  }
  EXPECT_GT(via_runs.kernel_stats().bulk_runs, 0u);
  EXPECT_EQ(via_runs.kernel_stats().accepted +
                via_runs.kernel_stats().skipped,
            8000u);
  const auto a = per_record.take();
  const auto b = via_runs.take();
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(a.strata[i].stratum, b.strata[i].stratum);
    EXPECT_EQ(a.strata[i].seen, b.strata[i].seen);
    EXPECT_EQ(a.strata[i].items, b.strata[i].items);
  }
}

/// Keeps a copy of every closed slide's sample.
class SampleRecorder final : public core::QuerySink {
 public:
  explicit SampleRecorder(
      std::vector<sampling::StratifiedSample<engine::Record>>* samples)
      : core::QuerySink("samples"), samples_(samples) {}

  void on_slide(const std::vector<estimation::StratumSummary>&,
                const sampling::StratifiedSample<engine::Record>* sample,
                const sketch::SlideSketches*) override {
    samples_->push_back(sample != nullptr
                            ? *sample
                            : sampling::StratifiedSample<engine::Record>{});
  }
  core::QueryOutput evaluate(const engine::WindowResult&) override {
    return {};
  }
  std::unique_ptr<core::QuerySink> clone() const override {
    return std::make_unique<SampleRecorder>(samples_);
  }

 private:
  std::vector<sampling::StratifiedSample<engine::Record>>* samples_;
};

// The driver's absorb path every live feeder runs — slide runs from
// for_each_slide_run, late slides dropped at the fence, every kept run
// absorbed into its slide's sampler — against per-record offer() into
// per-slide samplers. The batch has a stratum run that crosses a slide
// boundary and a whole late-dropped slide, so the sampler must segment each
// kept slide run on its own: its bulk runs are exactly the maximal
// same-stratum runs inside that slide run.
TEST(SkipAheadOasrs, SlideRunsStraddlingSlidesMatchPerRecordOffer) {
  constexpr std::int64_t kSlideUs = 1000;
  std::vector<engine::Record> batch;
  std::int64_t t = 0;
  const auto append = [&](sampling::StratumId stratum, int n,
                          std::int64_t slide) {
    for (int i = 0; i < n; ++i) {
      const std::int64_t time = std::max(t, slide * kSlideUs);
      batch.push_back(engine::Record{stratum, static_cast<double>(batch.size()),
                                     time});
      t = time + 1;
    }
  };
  append(5, 30, 0);  // slide 0: late-dropped below
  append(6, 20, 0);
  append(1, 40, 1);  // slide 1: three maximal runs...
  append(2, 30, 1);
  append(3, 25, 1);  // ...the last continues into slide 2
  append(3, 35, 2);  // slide 2: four maximal runs
  append(1, 50, 2);
  append(2, 1, 2);
  append(1, 2, 2);
  const std::map<std::int64_t, std::uint64_t> expected_runs = {{1, 3},
                                                               {2, 4}};

  std::vector<sampling::StratifiedSample<engine::Record>> samples;
  core::PipelineDriverConfig config;
  config.window = {kSlideUs, kSlideUs};  // one slide per window
  config.initial_budget = 16;  // saturates every reservoir: skips happen
  // An accuracy budget keeps the cost function out, and the recorder's
  // zero-bound windows hold the budget at its floor of 16.
  config.budget = estimation::QueryBudget::relative_error(0.01);
  config.queries.add(std::make_unique<SampleRecorder>(&samples));
  core::PipelineDriver driver(config, nullptr);
  // Close slide 0 first, so the batch's slide-0 runs arrive late.
  ASSERT_TRUE(driver.offer(engine::Record{9, 0.0, 0}));
  ASSERT_EQ(driver.advance(kSlideUs), 1u);
  EXPECT_EQ(driver.offer_batch(batch), batch.size() - 50);

  std::map<std::int64_t, core::PipelineDriver::Sampler> per_record;
  for (const auto& record : batch) {
    const std::int64_t slide = record.event_time_us / kSlideUs;
    if (slide < 1) continue;
    auto it = per_record.find(slide);
    if (it == per_record.end()) {
      it = per_record
               .try_emplace(slide, driver.slide_sampler_config(slide),
                            engine::RecordStratum{})
               .first;
    }
    it->second.offer(record);
  }
  ASSERT_EQ(per_record.size(), 2u);

  for (auto& [slide, sampler] : per_record) {
    const std::uint64_t runs_before = driver.kernel_stats().bulk_runs;
    ASSERT_EQ(driver.advance((slide + 1) * kSlideUs), 1u);
    EXPECT_EQ(driver.kernel_stats().bulk_runs - runs_before,
              expected_runs.at(slide))
        << "slide " << slide;
    ASSERT_EQ(samples.size(), static_cast<std::size_t>(slide) + 1);
    const auto& a = samples.back();
    const auto b = sampler.take();
    ASSERT_EQ(a.strata.size(), b.strata.size()) << "slide " << slide;
    for (std::size_t i = 0; i < a.strata.size(); ++i) {
      EXPECT_EQ(a.strata[i].stratum, b.strata[i].stratum);
      EXPECT_EQ(a.strata[i].seen, b.strata[i].seen);
      EXPECT_EQ(a.strata[i].weight, b.strata[i].weight);
      EXPECT_EQ(a.strata[i].items, b.strata[i].items);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline level: the bulk kernel live end to end on the sharded path.

std::vector<engine::Record> make_stream(double seconds, double rate,
                                        std::uint64_t seed) {
  workload::SyntheticStream stream(workload::gaussian_substreams(rate), seed);
  return stream.generate(seconds);
}

std::vector<core::WindowOutput> run_pipeline(
    const std::vector<engine::Record>& records, std::size_t workers,
    std::size_t partitions,
    const std::function<void(core::StreamApproxConfig&)>& mutate,
    core::ShardedRunStats* stats = nullptr) {
  ingest::Broker broker;
  broker.create_topic("input", partitions);
  ingest::ReplayTool replay(broker, "input", records, {});
  core::StreamApproxConfig config;
  config.topic = "input";
  config.window = {1'000'000, 500'000};
  config.queries.aggregate("query", {core::Aggregation::kMean, false});
  config.workers = workers;
  config.seed = 99;
  config.idle_partition_timeout_ms = 30'000;
  if (mutate) mutate(config);
  core::StreamApprox system(broker, config);
  std::vector<core::WindowOutput> outputs;
  system.run([&](const core::WindowOutput& o) { outputs.push_back(o); });
  replay.wait();
  if (stats) *stats = system.last_run_stats();
  return outputs;
}

TEST(SkipAheadPipeline, ForcedStealShardedMatchesSequential) {
  // Tiny deques + per-record ingest cost force morsels through the steal
  // path (the WorkStealing test's recipe), with the bulk kernel live end to
  // end: watermarks, late-drops and per-window records_seen must equal the
  // sequential run's, and the kernel counters must show the bulk path
  // actually ran — on the sequential run too, where no record is late, so
  // every record is counted as accepted or skipped.
  const auto records = make_stream(3.0, 20000.0, 32);
  core::ShardedRunStats sequential_stats;
  const auto sequential = run_pipeline(records, 1, 2, {}, &sequential_stats);
  EXPECT_GT(sequential_stats.sampler_bulk_runs, 0u);
  EXPECT_EQ(sequential_stats.sampler_accepts + sequential_stats.sampler_skipped,
            records.size());
  core::ShardedRunStats stats;
  const auto sharded = run_pipeline(
      records, 8, 2,
      [](auto& c) {
        c.steal_deque_capacity = 2;
        c.ingest_cost = {500};
      },
      &stats);
  ASSERT_GT(sequential.size(), 2u);
  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].records_seen, sharded[i].records_seen)
        << "window " << i;
    EXPECT_EQ(sequential[i].estimate.window_end_us,
              sharded[i].estimate.window_end_us)
        << "window " << i;
  }
  EXPECT_GT(stats.sampler_bulk_runs, 0u);
  EXPECT_GT(stats.sampler_accepts, 0u);
  // Every kernel-counted record was absorbed; late-dropped runs may make the
  // sum trail records_absorbed but never exceed it.
  EXPECT_LE(stats.sampler_accepts + stats.sampler_skipped,
            stats.records_absorbed);
  EXPECT_GT(stats.sampler_accepts + stats.sampler_skipped, 0u);
}

}  // namespace
}  // namespace streamapprox
