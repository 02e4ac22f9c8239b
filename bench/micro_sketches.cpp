// Sketch-vs-sample ablation: the three mergeable sketch kinds (Count-Min
// heavy hitters, HyperLogLog distinct count, log-bucket quantiles) against
// the same query classes answered from a 10% OASRS stratified sample. The
// sample-backed answers (sample_heavy_hitters, sample_distinct,
// sample_quantile) are defined below; only this ablation uses them. The axes
// are the key regime (Zipf-skewed / uniform) and the key universe
// ("strata"), because that is what separates the two approaches
// structurally: weight-scaled sample counts track heavy hitters well under
// skew, but a sample cannot see the distinct keys it dropped and its tail
// quantiles degrade with the sampling fraction — the gap the full-stream
// sketch sinks close at a fixed small memory cost.
//
// Writes BENCH_micro_sketches.json (schema-gated by
// scripts/check_bench_json.py): one run per (method, sketch kind, regime,
// universe) cell with digest throughput and the measured error against the
// exact stream answer. Scale the workload with SA_BENCH_SCALE.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/table.h"
#include "engine/record.h"
#include "sampling/oasrs.h"
#include "sketch/sketches.h"

namespace {

using namespace streamapprox;
using engine::Record;

constexpr int kPasses = 3;
constexpr std::size_t kTopK = 10;
constexpr double kSampleFraction = 0.10;
constexpr double kCmEpsilon = 0.005;
constexpr double kCmDelta = 0.01;
constexpr double kHllEpsilon = 0.02;
constexpr double kQuantileAlpha = 0.02;
const std::vector<double> kProbes = {0.5, 0.95, 0.99};

/// Keys drawn from the regime over [0, universe); values lognormal so the
/// quantile ablation has a heavy tail to chase.
std::vector<Record> make_stream(const std::string& regime, std::size_t count,
                                std::uint64_t universe) {
  Rng rng(0x5ee7ULL + universe + (regime == "zipf" ? 1 : 0));
  std::vector<Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Record record;
    record.stratum = static_cast<sampling::StratumId>(
        regime == "zipf" ? rng.zipf(universe, 1.2) : rng.uniform_int(universe));
    record.value = rng.lognormal(3.0, 1.0);
    record.event_time_us = static_cast<std::int64_t>(i);
    records.push_back(record);
  }
  return records;
}

/// Exact stream answers, computed once per cell.
struct GroundTruth {
  std::map<std::uint64_t, std::uint64_t> counts;
  std::vector<std::uint64_t> top_keys;  // true top-K, count desc / key asc
  std::size_t distinct = 0;
  std::vector<double> quantiles;  // exact value at each probe
};

GroundTruth exact_answers(const std::vector<Record>& records) {
  GroundTruth truth;
  for (const auto& record : records) ++truth.counts[record.stratum];
  truth.distinct = truth.counts.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked(
      truth.counts.begin(), truth.counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < std::min(kTopK, ranked.size()); ++i) {
    truth.top_keys.push_back(ranked[i].first);
  }
  std::vector<double> values;
  values.reserve(records.size());
  for (const auto& record : records) values.push_back(record.value);
  std::sort(values.begin(), values.end());
  for (const double q : kProbes) {
    truth.quantiles.push_back(values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))]);
  }
  return truth;
}

/// Mean relative error of the estimated counts of the TRUE top-K keys (a
/// missing key estimates 0) — the heavy-hitter accuracy both methods chase.
double heavy_hitter_error(
    const GroundTruth& truth,
    const std::map<std::uint64_t, double>& estimated) {
  double total = 0.0;
  for (const std::uint64_t key : truth.top_keys) {
    const double exact = static_cast<double>(truth.counts.at(key));
    const auto it = estimated.find(key);
    const double est = it == estimated.end() ? 0.0 : it->second;
    total += std::abs(est - exact) / exact;
  }
  return truth.top_keys.empty()
             ? 0.0
             : total / static_cast<double>(truth.top_keys.size());
}

/// Mean relative error over the probe grid.
double quantile_error(const GroundTruth& truth,
                      const std::vector<double>& answers) {
  double total = 0.0;
  for (std::size_t i = 0; i < kProbes.size(); ++i) {
    total += std::abs(answers[i] - truth.quantiles[i]) /
             std::abs(truth.quantiles[i]);
  }
  return total / static_cast<double>(kProbes.size());
}

struct Measured {
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  double measured_error = 0.0;
};

/// Best-of-kPasses timing of `digest` (which rebuilds its state each pass);
/// the error comes from `error_of` over the last pass's state (all paths are
/// deterministic, so every pass answers identically).
template <typename DigestFn, typename ErrorFn>
Measured measure(std::size_t n, const DigestFn& digest,
                 const ErrorFn& error_of) {
  Measured best;
  for (int pass = 0; pass < kPasses; ++pass) {
    Stopwatch watch;
    digest();
    const double wall = watch.seconds();
    if (pass == 0 || wall < best.wall_seconds) best.wall_seconds = wall;
  }
  best.records_per_sec = best.wall_seconds > 0.0
                             ? static_cast<double>(n) / best.wall_seconds
                             : 0.0;
  best.measured_error = error_of();
  return best;
}

bench::Json run_json(const std::string& method, const std::string& sketch,
                     const std::string& regime, std::uint64_t universe,
                     std::size_t records, const Measured& measured) {
  auto entry = bench::Json::object();
  entry.set("mode", method + "-" + regime);
  entry.set("workers", 1);
  entry.set("throughput", measured.records_per_sec);
  entry.set("wall_seconds", measured.wall_seconds);
  entry.set("method", method);
  entry.set("sketch", sketch);
  entry.set("regime", regime);
  entry.set("strata", universe);
  entry.set("records", records);
  entry.set("records_per_sec", measured.records_per_sec);
  entry.set("measured_error", measured.measured_error);
  return entry;
}

// ---- Sample-backed answers to the sketch query classes, keyed by stratum
// as main() keys the sketches.

/// Population-scale key frequencies estimated from the sample: every sampled
/// record contributes its stratum weight W_i to its key's count. Returns the
/// top_k keys ordered by estimated count desc, key asc (the sketch sink's
/// deterministic ordering, so ablation rows compare like for like).
std::vector<std::pair<std::uint64_t, double>> sample_heavy_hitters(
    const sampling::StratifiedSample<Record>& sample, std::size_t top_k) {
  std::unordered_map<std::uint64_t, double> estimated;
  for (const auto& stratum : sample.strata) {
    for (const auto& record : stratum.items) {
      estimated[record.stratum] += stratum.weight;
    }
  }
  std::vector<std::pair<std::uint64_t, double>> ranked(estimated.begin(),
                                                       estimated.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

/// Distinct keys OBSERVED in the sample. A sample cannot estimate past its
/// kept records, so this undercounts the stream's true cardinality whenever
/// the sampling fraction drops below 1 — the structural sample-vs-sketch gap
/// the ablation measures.
std::uint64_t sample_distinct(
    const sampling::StratifiedSample<Record>& sample) {
  std::unordered_set<std::uint64_t> keys;
  for (const auto& stratum : sample.strata) {
    for (const auto& record : stratum.items) keys.insert(record.stratum);
  }
  return keys.size();
}

/// Weight-expanded sample quantile: the value at rank q of the sampled
/// records, each counted with its stratum weight W_i. Returns 0 when the
/// sample is empty.
double sample_quantile(const sampling::StratifiedSample<Record>& sample,
                       double q) {
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  double total_weight = 0.0;
  for (const auto& stratum : sample.strata) {
    for (const auto& record : stratum.items) {
      weighted.emplace_back(record.value, stratum.weight);
      total_weight += stratum.weight;
    }
  }
  if (weighted.empty() || total_weight <= 0.0) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * total_weight;
  double cumulative = 0.0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return weighted.back().first;
}

sampling::StratifiedSample<Record> draw_sample(
    const std::vector<Record>& records) {
  sampling::OasrsConfig config;
  config.total_budget = static_cast<std::size_t>(
      std::max(16.0, static_cast<double>(records.size()) * kSampleFraction));
  config.seed = 0xab1e;
  auto sampler = sampling::make_oasrs<Record>(config);
  sampler.offer_batch(records.data(), records.size());
  return sampler.take();
}

}  // namespace

int main() {
  const std::size_t count = bench::scaled(std::size_t{1} << 18);
  std::printf(
      "Sketch-vs-sample ablation: Count-Min / HLL / quantile sketches vs a "
      "%.0f%% OASRS sample (%zu records/cell, best of %d passes, scale "
      "%.2f)\n\n",
      kSampleFraction * 100.0, count, kPasses, bench::bench_scale());

  struct Cell {
    const char* regime;
    std::uint64_t universe;
  };
  const std::vector<Cell> cells = {
      {"zipf", 256}, {"zipf", 4096}, {"uniform", 256}, {"uniform", 4096}};

  auto runs_json = bench::Json::array();
  Table table("Sketch vs sample accuracy (mean relative error)",
              {"Regime", "Universe", "Query", "Sketch err", "Sample err",
               "Sketch rec/s", "Sample rec/s"});
  for (const auto& cell : cells) {
    const auto records = make_stream(cell.regime, count, cell.universe);
    const auto truth = exact_answers(records);
    const auto sample = draw_sample(records);

    // Timed once per cell: the sample path's digest is the OASRS offer loop
    // itself (shared by all three query classes), so each sample row
    // reports the same digest throughput with its own answer error.
    const auto sample_digest = [&] {
      auto drawn = draw_sample(records);
      (void)drawn;
    };

    // ---- Count-Min vs weight-scaled sample counts.
    sketch::CountMinSketch cm(1, 1, 0);
    const auto cm_measured = measure(
        records.size(),
        [&] {
          cm = sketch::CountMinSketch::for_error(kCmEpsilon, kCmDelta, 7);
          for (const auto& record : records) cm.update(record.stratum);
        },
        [&] {
          std::map<std::uint64_t, double> estimated;
          for (const std::uint64_t key : truth.top_keys) {
            estimated[key] = static_cast<double>(cm.estimate(key));
          }
          return heavy_hitter_error(truth, estimated);
        });
    const auto sample_hh = measure(records.size(), sample_digest, [&] {
      std::map<std::uint64_t, double> estimated;
      for (const auto& [key, est] : sample_heavy_hitters(sample, kTopK)) {
        estimated[key] = est;
      }
      return heavy_hitter_error(truth, estimated);
    });
    runs_json.push(run_json("sketch", "count_min", cell.regime, cell.universe,
                            records.size(), cm_measured));
    runs_json.push(run_json("sample", "count_min", cell.regime, cell.universe,
                            records.size(), sample_hh));
    table.add_row({cell.regime, std::to_string(cell.universe), "heavy hitters",
                   Table::num(cm_measured.measured_error),
                   Table::num(sample_hh.measured_error),
                   bench::format_throughput(cm_measured.records_per_sec),
                   bench::format_throughput(sample_hh.records_per_sec)});

    // ---- HyperLogLog vs distinct-keys-observed-in-sample.
    sketch::HyperLogLog hll(4, 0);
    const auto hll_measured = measure(
        records.size(),
        [&] {
          hll = sketch::HyperLogLog::for_error(kHllEpsilon, 7);
          for (const auto& record : records) hll.add(record.stratum);
        },
        [&] {
          const double truth_d = static_cast<double>(truth.distinct);
          return std::abs(hll.estimate() - truth_d) / truth_d;
        });
    const auto sample_keys = measure(records.size(), sample_digest, [&] {
      const double truth_d = static_cast<double>(truth.distinct);
      const double est = static_cast<double>(sample_distinct(sample));
      return std::abs(est - truth_d) / truth_d;
    });
    runs_json.push(run_json("sketch", "hll", cell.regime, cell.universe,
                            records.size(), hll_measured));
    runs_json.push(run_json("sample", "hll", cell.regime, cell.universe,
                            records.size(), sample_keys));
    table.add_row({cell.regime, std::to_string(cell.universe), "distinct",
                   Table::num(hll_measured.measured_error),
                   Table::num(sample_keys.measured_error),
                   bench::format_throughput(hll_measured.records_per_sec),
                   bench::format_throughput(sample_keys.records_per_sec)});

    // ---- Log-bucket quantiles vs weight-expanded sample quantiles.
    sketch::QuantileSketch quant(kQuantileAlpha);
    const auto quant_measured = measure(
        records.size(),
        [&] {
          quant = sketch::QuantileSketch(kQuantileAlpha);
          for (const auto& record : records) quant.update(record.value);
        },
        [&] {
          std::vector<double> answers;
          for (const double q : kProbes) answers.push_back(quant.quantile(q));
          return quantile_error(truth, answers);
        });
    const auto sample_quant = measure(records.size(), sample_digest, [&] {
      std::vector<double> answers;
      for (const double q : kProbes) {
        answers.push_back(sample_quantile(sample, q));
      }
      return quantile_error(truth, answers);
    });
    runs_json.push(run_json("sketch", "kll", cell.regime, cell.universe,
                            records.size(), quant_measured));
    runs_json.push(run_json("sample", "kll", cell.regime, cell.universe,
                            records.size(), sample_quant));
    table.add_row({cell.regime, std::to_string(cell.universe), "quantiles",
                   Table::num(quant_measured.measured_error),
                   Table::num(sample_quant.measured_error),
                   bench::format_throughput(quant_measured.records_per_sec),
                   bench::format_throughput(sample_quant.records_per_sec)});
  }
  table.print();

  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("records_per_cell", count);
  meta.set("passes", kPasses);
  meta.set("sample_fraction", kSampleFraction);
  meta.set("top_k", kTopK);
  meta.set("cm_epsilon", kCmEpsilon);
  meta.set("cm_delta", kCmDelta);
  meta.set("hll_epsilon", kHllEpsilon);
  meta.set("quantile_alpha", kQuantileAlpha);
  auto body = bench::Json::object();
  body.set("meta", meta);
  body.set("runs", runs_json);
  bench::write_bench_json("micro_sketches", body);

  bench::paper_shape(
      "Expected shape: the weight-scaled sample tracks Zipf heavy hitters "
      "but misses uniform ones; sample_distinct undercounts whenever the "
      "universe outruns the budget while HLL stays within its 2% band; and "
      "tail quantiles from the sample wobble where the deterministic "
      "log-bucket sketch holds its alpha bound — all at a fixed small "
      "memory cost and full-stream digest rates.");
  return 0;
}
