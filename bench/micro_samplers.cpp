// Sampler-kernel microbenchmarks (google-benchmark): per-item cost of each
// sampling algorithm in isolation, plus ablations (ScaSRS vs Bernoulli,
// grouping cost of STS).
//
// Before the google-benchmark suite runs, main() measures the two OASRS
// offer paths (per-record offer() and offer_run() over same-stratum runs,
// each at 1% / 10% / 50% effective sampling fractions) and saves them to
// BENCH_micro_samplers.json, so CI can schema-check and archive the
// trajectory like the fig_* benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "engine/record.h"
#include "sampling/oasrs.h"
#include "sampling/reservoir.h"
#include "sampling/scasrs.h"
#include "sampling/sts.h"
#include "workload/synthetic.h"

namespace {

using streamapprox::engine::Record;
using namespace streamapprox;

std::vector<Record> bench_stream(std::size_t n) {
  workload::SyntheticStream stream(workload::gaussian_substreams(30000.0),
                                   424242);
  return stream.generate_count(n);
}

// ---- Reservoir: Algorithm R (paper Algorithm 1), per-record offers.

void BM_ReservoirAlgorithmR(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  const auto capacity = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sampling::ReservoirSampler<Record> reservoir(capacity, 7);
    for (const auto& record : records) reservoir.offer(record);
    benchmark::DoNotOptimize(reservoir.items().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ReservoirAlgorithmR)->Arg(64)->Arg(1024)->Arg(16384);

// ---- OASRS end-to-end offer cost (3 strata, budget = 10% of stream).

void BM_OasrsOffer(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  for (auto _ : state) {
    sampling::OasrsConfig config;
    config.total_budget = records.size() / 10;
    config.seed = 9;
    auto sampler = sampling::make_oasrs<Record>(config);
    for (const auto& record : records) sampler.offer(record);
    auto sample = sampler.take();
    benchmark::DoNotOptimize(sample.strata.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_OasrsOffer);

// ---- Batch samplers at fraction 60% (the paper's default).

void BM_ScaSrsBatch(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  Rng rng(11);
  for (auto _ : state) {
    auto result = sampling::scasrs_sample(records, 0.6, rng);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ScaSrsBatch);

void BM_BernoulliBatch(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  Rng rng(12);
  for (auto _ : state) {
    auto result = sampling::bernoulli_sample(records, 0.6, rng);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_BernoulliBatch);

void BM_StsLocalBatch(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  Rng rng(13);
  for (auto _ : state) {
    auto sample = sampling::sts_sample_local(
        records, streamapprox::engine::RecordStratum{}, 0.6, rng, true);
    benchmark::DoNotOptimize(sample.strata.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_StsLocalBatch);

// The grouping step alone — the data arrangement STS pays for even before
// sampling (the shuffle adds synchronisation on top in the full engine).

void BM_GroupByStratum(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  for (auto _ : state) {
    auto groups = sampling::group_by_stratum(
        records, streamapprox::engine::RecordStratum{});
    benchmark::DoNotOptimize(&groups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_GroupByStratum);

// ---- Streaming Bernoulli (lower-bound baseline).

/// Keeps each offered record independently with probability `fraction`: the
/// simplest online sampler. Unlike OASRS it has no per-stratum fairness, and
/// its sample size is unbounded in expectation (fraction * stream length).
class StreamingBernoulliSampler {
 public:
  StreamingBernoulliSampler(double fraction, std::uint64_t seed)
      : fraction_(fraction), rng_(seed) {}

  void offer(const Record& record) {
    if (rng_.bernoulli(fraction_)) items_.push_back(record);
  }

  const std::vector<Record>& items() const noexcept { return items_; }

 private:
  double fraction_;
  Rng rng_;
  std::vector<Record> items_;
};

void BM_StreamingBernoulli(benchmark::State& state) {
  const auto records = bench_stream(1 << 16);
  for (auto _ : state) {
    StreamingBernoulliSampler sampler(0.6, 15);
    for (const auto& record : records) sampler.offer(record);
    benchmark::DoNotOptimize(sampler.items().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_StreamingBernoulli);

// ---- Saved offer-path runs: BENCH_micro_samplers.json ----------------------

/// Exchange-shaped workload: same-stratum chunks of `kRunLength` records
/// rotating over `kStrata` strata — the run shape a worker's offer_batch
/// segments out of a long-run exchange batch.
constexpr std::size_t kStrata = 4;
constexpr std::size_t kRunLength = 1024;

std::vector<Record> chunked_stream(std::size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(Record{
        static_cast<sampling::StratumId>((i / kRunLength) % kStrata),
        static_cast<double>(i % 1000),
        static_cast<std::int64_t>(i) * 100});
  }
  return records;
}

sampling::OasrsConfig ablation_config(std::size_t budget) {
  sampling::OasrsConfig config;
  config.total_budget = budget;
  config.seed = 0xbeef;
  return config;
}

/// One timed mode: `passes` fresh samplers over the whole stream, wall time
/// summed across passes (one untimed warm-up first).
template <typename OfferAll>
bench::Json measure_mode(const char* mode, const std::vector<Record>& records,
                         std::size_t budget, double fraction, int passes,
                         OfferAll&& offer_all) {
  const auto one_pass = [&] {
    auto sampler = sampling::make_oasrs<Record>(ablation_config(budget));
    offer_all(sampler);
    auto sample = sampler.take();
    benchmark::DoNotOptimize(sample.strata.data());
  };
  one_pass();  // warm-up
  Stopwatch watch;
  for (int p = 0; p < passes; ++p) one_pass();
  const double wall = watch.seconds();
  const double total =
      static_cast<double>(records.size()) * static_cast<double>(passes);
  auto run = bench::Json::object();
  run.set("mode", mode);
  run.set("workers", 1);
  run.set("fraction", fraction);
  run.set("budget", static_cast<std::uint64_t>(budget));
  run.set("throughput", wall > 0.0 ? total / wall : 0.0);
  run.set("wall_seconds", wall);
  run.set("records_per_pass", static_cast<std::uint64_t>(records.size()));
  run.set("passes", passes);
  return run;
}

/// The two OASRS offer paths at three effective sampling fractions: per
/// record (one stratum lookup per record) and per same-stratum run (one
/// lookup per run). At 1% the reservoirs fill almost at once and then
/// reject nearly every record; at 50% they accept far more.
void write_offer_paths_json() {
  const std::size_t n = bench::scaled(std::size_t{1} << 20);
  const auto records = chunked_stream(n);
  const int passes = 5;
  const double fractions[] = {0.01, 0.10, 0.50};

  auto runs = bench::Json::array();
  for (const double fraction : fractions) {
    const auto budget = static_cast<std::size_t>(
        std::max(4.0, static_cast<double>(n) * fraction));
    const auto per_record = [&](auto& sampler) {
      for (const auto& record : records) sampler.offer(record);
    };
    const auto per_run = [&](auto& sampler) {
      for (std::size_t i = 0; i < records.size(); i += kRunLength) {
        const std::size_t len = std::min(kRunLength, records.size() - i);
        sampler.offer_run(records[i].stratum, records.data() + i, len);
      }
    };
    runs.push(measure_mode("oasrs_offer", records, budget, fraction, passes,
                           per_record));
    runs.push(measure_mode("oasrs_offer_run", records, budget, fraction,
                           passes, per_run));
  }

  auto body = bench::Json::object();
  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("records_per_pass", static_cast<std::uint64_t>(n));
  meta.set("passes", passes);
  meta.set("strata", static_cast<std::uint64_t>(kStrata));
  meta.set("run_length", static_cast<std::uint64_t>(kRunLength));
  body.set("meta", std::move(meta));
  body.set("runs", std::move(runs));
  const std::string path = bench::write_bench_json("micro_samplers", body);
  if (!path.empty()) {
    std::printf("offer-path runs saved to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  write_offer_paths_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
