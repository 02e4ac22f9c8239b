#include "core/systems.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/pipeline_driver.h"
#include "engine/batched/dataset.h"
#include "engine/batched/scheduler.h"
#include "engine/batched/shuffle.h"
#include "engine/pipelined/aggregators.h"
#include "engine/pipelined/dataflow.h"
#include "estimation/estimators.h"
#include "sampling/oasrs.h"
#include "sampling/scasrs.h"
#include "sampling/sts.h"

namespace streamapprox::core {
namespace {

using engine::QueryCost;
using engine::Record;
using engine::RecordStratum;
using engine::batched::BatchJob;
using engine::batched::Dataset;
using engine::batched::MicroBatchConfig;
using engine::batched::Scheduler;
using engine::batched::SchedulerConfig;
using engine::batched::StreamRunResult;
using estimation::StratumSummary;
using sampling::StratifiedSample;
using sampling::StratumId;

std::size_t partitions_of(const SystemConfig& config) {
  return config.partitions != 0 ? config.partitions
                                : std::max<std::size_t>(1, 2 * config.workers);
}

/// A PipelineDriver in raw-window mode: the evaluation harness computes its
/// own accuracy metrics, so windows are collected unevaluated — the query
/// registry is bypassed entirely (no sinks are instantiated) and the timed
/// loop stays free of evaluation work. Both engine paths below run their
/// slide lifecycle through this shared driver instead of each keeping a
/// private window assembler.
PipelineDriver make_eval_driver(const engine::WindowConfig& window,
                                StreamRunResult& result) {
  PipelineDriverConfig config;
  config.window = window;
  config.evaluate = false;
  return PipelineDriver(std::move(config), nullptr,
                        [&result](engine::WindowResult w) {
                          result.windows.push_back(std::move(w));
                        });
}

/// The micro-batch saturation loop (paper §6.1 methodology) on the shared
/// slide lifecycle: batches become cells via `job`, cells close slides on
/// the driver, the driver assembles windows.
StreamRunResult run_batched_on_driver(const std::vector<Record>& records,
                                      const engine::batched::MicroBatchConfig&
                                          config,
                                      const BatchJob& job) {
  StreamRunResult result;
  auto driver = make_eval_driver(config.window, result);
  auto run = engine::batched::run_micro_batches(
      records, config, job,
      [&driver](std::size_t slide, std::vector<StratumSummary> cells) {
        driver.close_slide_cells(static_cast<std::int64_t>(slide),
                                 std::move(cells));
      });
  result.records_processed = run.records_processed;
  result.wall_seconds = run.wall_seconds;
  return result;
}

/// Accumulates one record's (possibly weighted) value into a cell map.
struct CellMap {
  std::unordered_map<StratumId, StratumSummary> cells;

  void add_exact(StratumId stratum, double value) {
    auto& cell = cells[stratum];
    cell.stratum = stratum;
    ++cell.seen;
    ++cell.sampled;
    cell.sum += value;
    cell.sum_sq += value * value;
  }

  std::vector<StratumSummary> take() {
    std::vector<StratumSummary> out;
    out.reserve(cells.size());
    for (auto& [id, cell] : cells) out.push_back(cell);
    cells.clear();
    return out;
  }
};

// ------------------------------------------------------------- Native Spark

BatchJob make_native_spark_job(Scheduler& scheduler,
                               const SystemConfig& config) {
  const std::size_t partitions = partitions_of(config);
  const QueryCost work = config.query_cost;
  return [&scheduler, partitions, work](
             std::size_t, std::span<const Record> batch) {
    // Stage 1: batch -> RDD. Stage 2: exact per-partition aggregation.
    auto dataset = Dataset<Record>::from(batch, partitions, scheduler);
    auto parts = dataset.map_partitions<std::vector<StratumSummary>>(
        [work](std::size_t, const std::vector<Record>& part) {
          CellMap cells;
          for (const Record& record : part) {
            cells.add_exact(record.stratum, work.charge(record.value));
          }
          return cells.take();
        },
        scheduler);
    std::vector<StratumSummary> out;
    for (auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
}

// --------------------------------------------------------------- Spark SRS

/// Distributed ScaSRS over a micro-batch (paper §4.1): a map stage assigns
/// random keys and splits records into accepted / waitlisted; the driver
/// then sorts the combined waitlist (the measured bottleneck) and tops the
/// sample up to exactly k items; a final stage aggregates the sample.
BatchJob make_spark_srs_job(Scheduler& scheduler, const SystemConfig& config,
                            std::uint64_t seed) {
  const std::size_t partitions = partitions_of(config);
  const double fraction = config.sampling_fraction;
  const QueryCost work = config.query_cost;
  struct SrsPart {
    std::vector<Record> accepted;
    std::vector<std::pair<double, Record>> waitlist;
  };
  // One RNG per partition, persistent across batches for determinism.
  auto rngs = std::make_shared<std::vector<streamapprox::Rng>>();
  {
    streamapprox::Rng root(seed);
    for (std::size_t p = 0; p < partitions; ++p) rngs->push_back(root.fork());
  }
  return [&scheduler, partitions, fraction, work, rngs](
             std::size_t, std::span<const Record> batch) {
    auto dataset = Dataset<Record>::from(batch, partitions, scheduler);
    const std::uint64_t n = batch.size();
    const auto thresholds = sampling::scasrs_thresholds(fraction, n);
    const auto k = static_cast<std::size_t>(std::max<double>(
        1.0, std::floor(fraction * static_cast<double>(n))));

    std::vector<SrsPart> parts(partitions);
    scheduler.run_stage(partitions, [&](std::size_t p) {
      auto& rng = (*rngs)[p];
      auto& part = parts[p];
      for (const Record& record : dataset.partitions()[p]) {
        const double u = rng.uniform();
        if (u < thresholds.p) {
          part.accepted.push_back(record);
        } else if (u < thresholds.q) {
          part.waitlist.emplace_back(u, record);
        }
      }
    });

    // Driver-side synchronisation: count accepted, sort the global waitlist,
    // top up to k. (This is SRS's "expensive sort" — but only over the
    // waitlist, which is O(sqrt(n log n)) items, so SRS stays much cheaper
    // than STS's full shuffle.)
    std::size_t accepted = 0;
    for (const auto& part : parts) accepted += part.accepted.size();
    std::vector<std::pair<double, Record>> waitlist;
    for (auto& part : parts) {
      waitlist.insert(waitlist.end(),
                      std::make_move_iterator(part.waitlist.begin()),
                      std::make_move_iterator(part.waitlist.end()));
    }
    std::vector<Record> topup;
    if (accepted < k && !waitlist.empty()) {
      std::sort(waitlist.begin(), waitlist.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      const std::size_t need = std::min(k - accepted, waitlist.size());
      topup.reserve(need);
      for (std::size_t i = 0; i < need; ++i) {
        topup.push_back(std::move(waitlist[i].second));
      }
    }

    // Build the sample RDD (keep per-partition locality; top-ups go to the
    // first partition) and aggregate it.
    std::vector<std::vector<Record>> sample_parts(partitions);
    std::size_t total_sampled = topup.size();
    for (std::size_t p = 0; p < partitions; ++p) {
      total_sampled += parts[p].accepted.size();
      sample_parts[p] = std::move(parts[p].accepted);
    }
    sample_parts[0].insert(sample_parts[0].end(),
                           std::make_move_iterator(topup.begin()),
                           std::make_move_iterator(topup.end()));
    const double weight =
        total_sampled > 0
            ? static_cast<double>(n) / static_cast<double>(total_sampled)
            : 1.0;

    auto sample_ds =
        Dataset<Record>::from_partitions(std::move(sample_parts));
    auto cell_parts = sample_ds.map_partitions<std::vector<StratumSummary>>(
        [work, weight](std::size_t, const std::vector<Record>& part) {
          CellMap cells;
          for (const Record& record : part) {
            cells.add_exact(record.stratum, work.charge(record.value));
          }
          auto out = cells.take();
          // SRS knows only the global population: per-stratum counts C_i are
          // NOT tracked (this is precisely how SRS "loses the capability of
          // considering each sub-stream fairly", §5.2). Expand each cell by
          // the uniform weight; the per-stratum population becomes an
          // estimate Y_i * (n/k).
          for (auto& cell : out) {
            cell.weight = weight;
            cell.seen = static_cast<std::uint64_t>(std::llround(
                static_cast<double>(cell.sampled) * weight));
          }
          return out;
        },
        scheduler);
    std::vector<StratumSummary> out;
    for (auto& part : cell_parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
}

// --------------------------------------------------------------- Spark STS

/// Spark stratified sampling (sampleByKey[Exact], §4.1): shuffle-groupBy by
/// stratum (two stages with a full barrier and full data movement), then SRS
/// within each stratum at the same fraction, then aggregate.
BatchJob make_spark_sts_job(Scheduler& scheduler, const SystemConfig& config,
                            std::uint64_t seed) {
  const std::size_t partitions = partitions_of(config);
  const double fraction = config.sampling_fraction;
  const QueryCost work = config.query_cost;
  const bool exact = config.sts_exact;
  auto rngs = std::make_shared<std::vector<streamapprox::Rng>>();
  {
    streamapprox::Rng root(seed);
    for (std::size_t p = 0; p < partitions; ++p) rngs->push_back(root.fork());
  }
  return [&scheduler, partitions, fraction, work, exact, rngs](
             std::size_t, std::span<const Record> batch) {
    auto dataset = Dataset<Record>::from(batch, partitions, scheduler);
    auto grouped = engine::batched::shuffle_group_by(
        dataset, RecordStratum{}, scheduler, partitions);

    std::vector<std::vector<StratumSummary>> reducer_cells(partitions);
    scheduler.run_stage(partitions, [&](std::size_t r) {
      auto& rng = (*rngs)[r];
      auto sample = sampling::sts_sample(grouped[r], fraction, rng, exact);
      reducer_cells[r] = estimation::summarize(
          sample,
          [work](const Record& record) { return work.charge(record.value); });
    });

    std::vector<StratumSummary> out;
    for (auto& cells : reducer_cells) {
      out.insert(out.end(), cells.begin(), cells.end());
    }
    return out;
  };
}

// ------------------------------------------------- Spark-based StreamApprox

/// OASRS on the ingest path, BEFORE RDD formation (§4.2.1 "the input data
/// items are sampled on-the-fly using our sampling module before items are
/// transformed into RDDs"). Each worker samples its slice of the batch with
/// an independent OASRS (no synchronisation); only the sample enters the
/// engine, where a single stage aggregates it.
BatchJob make_spark_approx_job(Scheduler& scheduler,
                               const SystemConfig& config,
                               std::uint64_t seed) {
  const std::size_t workers = std::max<std::size_t>(1, config.workers);
  const double fraction = config.sampling_fraction;
  const QueryCost work = config.query_cost;
  auto rngs = std::make_shared<std::vector<std::uint64_t>>();
  {
    streamapprox::Rng root(seed);
    for (std::size_t w = 0; w < workers; ++w) rngs->push_back(root.next());
  }
  return [&scheduler, workers, fraction, work, rngs](
             std::size_t batch_index, std::span<const Record> batch) {
    // Ingest path: parallel OASRS over slices of the raw batch. Not a Spark
    // stage — it runs in the (modified) Kafka connector.
    std::vector<StratifiedSample<Record>> samples(workers);
    scheduler.run_slices(
        batch.size(), workers,
        [&](std::size_t w, std::size_t begin, std::size_t end) {
          sampling::OasrsConfig oasrs;
          oasrs.total_budget = static_cast<std::size_t>(std::ceil(
              fraction * static_cast<double>(end - begin)));
          oasrs.seed = (*rngs)[w] + batch_index * 0x9e3779b97f4a7c15ULL;
          auto sampler = sampling::make_oasrs<Record>(oasrs);
          for (std::size_t i = begin; i < end; ++i) sampler.offer(batch[i]);
          samples[w] = sampler.take();
        });

    // One Spark stage: aggregate each worker's sample (the data-parallel job
    // of Algorithm 2 running on the sampled RDD).
    std::vector<std::vector<StratumSummary>> cell_parts(workers);
    scheduler.run_stage(workers, [&](std::size_t w) {
      cell_parts[w] = estimation::summarize(
          samples[w],
          [work](const Record& record) { return work.charge(record.value); });
    });
    std::vector<StratumSummary> out;
    for (auto& cells : cell_parts) {
      out.insert(out.end(), cells.begin(), cells.end());
    }
    return out;
  };
}

// ---------------------------------------------------------------- Pipelined

StreamRunResult run_pipelined(SystemKind kind,
                              const std::vector<Record>& records,
                              const SystemConfig& config) {
  engine::pipelined::PipelineConfig pipeline;
  pipeline.parallelism = std::max<std::size_t>(1, config.workers);
  pipeline.window = config.window;

  // Per-slide, per-worker sampling budget from the sampling fraction: the
  // virtual cost function's job in a live deployment; here derived from the
  // known stream rate, as the evaluation fixes fractions explicitly.
  const double duration_s =
      records.empty()
          ? 0.0
          : static_cast<double>(records.back().event_time_us) / 1e6;
  const double slides =
      std::max(1.0, duration_s * 1e6 / static_cast<double>(
                                           config.window.slide_us));
  const double per_slide_items =
      static_cast<double>(records.size()) / slides;
  const auto per_worker_budget = static_cast<std::size_t>(std::ceil(
      config.sampling_fraction * per_slide_items /
      static_cast<double>(pipeline.parallelism)));

  streamapprox::Rng root(config.seed);
  std::vector<std::uint64_t> seeds;
  for (std::size_t w = 0; w < pipeline.parallelism; ++w) {
    seeds.push_back(root.next());
  }

  const QueryCost work = config.query_cost;
  engine::pipelined::AggregatorFactory factory;
  if (kind == SystemKind::kNativeFlink) {
    factory = [work](std::size_t) {
      return std::make_unique<engine::pipelined::ExactSlideAggregator>(work);
    };
  } else {
    factory = [work, per_worker_budget, seeds](std::size_t w) {
      sampling::OasrsConfig oasrs;
      oasrs.total_budget = std::max<std::size_t>(1, per_worker_budget);
      oasrs.seed = seeds[w];
      return std::make_unique<engine::pipelined::OasrsSlideAggregator>(oasrs,
                                                                       work);
    };
  }
  // The slide lifecycle runs on the shared PipelineDriver: the dataflow's
  // collector thread feeds joined slides into the driver's cells path.
  StreamRunResult result;
  auto driver = make_eval_driver(config.window, result);
  auto run = engine::pipelined::run_pipeline(
      records, pipeline, factory,
      [&driver](std::size_t slide, std::vector<StratumSummary> cells) {
        driver.close_slide_cells(static_cast<std::int64_t>(slide),
                                 std::move(cells));
      });
  result.records_processed = run.records_processed;
  result.wall_seconds = run.wall_seconds;
  return result;
}

}  // namespace

std::string system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kFlinkApprox:
      return "Flink-based StreamApprox";
    case SystemKind::kSparkApprox:
      return "Spark-based StreamApprox";
    case SystemKind::kSparkSRS:
      return "Spark-based SRS";
    case SystemKind::kSparkSTS:
      return "Spark-based STS";
    case SystemKind::kNativeSpark:
      return "Native Spark";
    case SystemKind::kNativeFlink:
      return "Native Flink";
  }
  return "?";
}

bool is_native(SystemKind kind) {
  return kind == SystemKind::kNativeSpark || kind == SystemKind::kNativeFlink;
}

bool is_batched(SystemKind kind) {
  return kind == SystemKind::kSparkApprox || kind == SystemKind::kSparkSRS ||
         kind == SystemKind::kSparkSTS || kind == SystemKind::kNativeSpark;
}

engine::batched::StreamRunResult run_system(
    SystemKind kind, const std::vector<engine::Record>& records,
    const SystemConfig& config) {
  if (!is_batched(kind)) return run_pipelined(kind, records, config);

  Scheduler scheduler(SchedulerConfig{
      .workers = std::max<std::size_t>(1, config.workers),
      .stage_overhead = config.stage_overhead,
  });
  MicroBatchConfig micro;
  micro.batch_interval_us = config.batch_interval_us;
  micro.window = config.window;

  BatchJob job;
  switch (kind) {
    case SystemKind::kNativeSpark:
      job = make_native_spark_job(scheduler, config);
      break;
    case SystemKind::kSparkSRS:
      job = make_spark_srs_job(scheduler, config, config.seed);
      break;
    case SystemKind::kSparkSTS:
      job = make_spark_sts_job(scheduler, config, config.seed);
      break;
    case SystemKind::kSparkApprox:
      job = make_spark_approx_job(scheduler, config, config.seed);
      break;
    default:
      break;
  }
  return run_batched_on_driver(records, micro, job);
}

}  // namespace streamapprox::core
