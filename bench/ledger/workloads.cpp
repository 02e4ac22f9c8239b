#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"
#include "ledger.h"
#include "workload/netflow.h"
#include "workload/taxi.h"

namespace ledger {
namespace {

constexpr double kBudgetFraction = 0.10;
constexpr std::uint64_t kZipfSources = 1024;

/// 1024 sources whose popularity follows Zipf(1.0), one record per message
/// at a fixed event-time spacing; source s draws Gaussian(100(s+1),
/// 10(s+1)). Consecutive records rarely share a source, so runs are short.
std::vector<Record> generate_zipf(std::size_t count, double rate,
                                  std::uint64_t seed) {
  streamapprox::Rng rng(seed);
  std::vector<Record> records;
  records.reserve(count);
  const double spacing_us = 1e6 / rate;
  for (std::size_t i = 0; i < count; ++i) {
    const auto source = rng.zipf(kZipfSources, 1.0);
    const double scale = static_cast<double>(source + 1);
    Record record;
    record.stratum = static_cast<sampling::StratumId>(source);
    record.value = rng.gaussian(100.0 * scale, 10.0 * scale);
    record.event_time_us =
        static_cast<std::int64_t>(static_cast<double>(i) * spacing_us);
    records.push_back(record);
  }
  return records;
}

}  // namespace

const std::vector<Workload>& workloads() {
  using core::Aggregation;
  static const std::vector<Workload> all{
      {.name = "netflow_mix_seq",
       .source = Source::kNetflow,
       .workers = 1,
       .partitions = 3,
       .rate = 200'000.0,
       .records = 8'000'000,
       .min_timed_runs = 7,
       .primary_name = "sum_by_protocol",
       .primary = {Aggregation::kSum, true},
       .histogram = {0.0, 65536.0, 32}},
      {.name = "taxi_mix_w2",
       .source = Source::kTaxi,
       .workers = 2,
       .partitions = 6,
       .rate = 200'000.0,
       .records = 8'000'000,
       .min_timed_runs = 11,
       .primary_name = "mean_by_borough",
       .primary = {Aggregation::kMean, true},
       .histogram = {0.0, 60.0, 32}},
      {.name = "zipf1024_sample_w2",
       .source = Source::kZipf,
       .workers = 2,
       .partitions = 8,
       .rate = 400'000.0,
       .records = 16'000'000,
       .min_timed_runs = 15,
       .sketches = false,
       .primary_name = "sum_by_stratum",
       .primary = {Aggregation::kSum, true},
       .histogram = {0.0, 110'000.0, 32}},
      {.name = "netflow_paced_w2",
       .source = Source::kNetflow,
       .workers = 2,
       .partitions = 3,
       .window = {1'000'000, 50'000},
       .paced = true,
       .rate = 1'000'000.0,
       .min_timed_runs = 1,
       .primary_name = "sum_by_protocol",
       .primary = {Aggregation::kSum, true},
       .histogram = {0.0, 65536.0, 32}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t input_size(const Workload& workload, double seconds,
                       double scale) {
  // The paced run lasts `seconds` at its fixed rate; scaling it would only
  // shorten it below a window.
  if (workload.paced) {
    return static_cast<std::size_t>(workload.rate * seconds);
  }
  return std::max<std::size_t>(
      1000, static_cast<std::size_t>(static_cast<double>(workload.records) *
                                     scale));
}

std::vector<Record> generate(const Workload& workload, std::size_t count,
                             std::uint64_t seed) {
  switch (workload.source) {
    case Source::kNetflow: {
      streamapprox::workload::NetFlowConfig config;
      config.flows_per_sec = workload.rate;
      return streamapprox::workload::generate_netflow(config, count, seed);
    }
    case Source::kTaxi: {
      streamapprox::workload::TaxiConfig config;
      config.rides_per_sec = workload.rate;
      return streamapprox::workload::generate_taxi_rides(config, count, seed);
    }
    case Source::kZipf:
      return generate_zipf(count, workload.rate, seed);
  }
  throw std::logic_error("unknown workload source");
}

std::vector<sketch::SketchSpec> full_mix_sketch_specs() {
  using Kind = sketch::SketchSpec::Kind;
  sketch::SketchSpec topk;
  topk.kind = Kind::kCountMin;
  topk.key = sketch::SketchSpec::KeySource::kStratum;
  topk.epsilon = 0.01;
  topk.delta = 0.01;
  sketch::SketchSpec distinct;
  distinct.kind = Kind::kHyperLogLog;
  distinct.key = sketch::SketchSpec::KeySource::kValueInt;
  distinct.epsilon = 0.02;
  sketch::SketchSpec quantiles;
  quantiles.kind = Kind::kQuantile;
  quantiles.epsilon = 0.01;
  std::vector<sketch::SketchSpec> specs{topk, distinct, quantiles};
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].id = i + 1;
  return specs;
}

QuerySet query_mix(const Workload& workload) {
  QuerySet set;
  set.aggregate(workload.primary_name, workload.primary);
  set.aggregate("mean", {core::Aggregation::kMean, false}, /*z=*/3.0);
  set.histogram("histogram", workload.histogram);
  if (workload.sketches) {
    const auto specs = full_mix_sketch_specs();
    set.sketch("topk_strata", specs[0]);
    set.sketch("distinct_values", specs[1]);
    set.sketch("quantiles", specs[2], {0.5, 0.95, 0.99});
  }
  return set;
}

core::StreamApproxConfig facade_config(const Workload& workload,
                                       std::size_t workers,
                                       std::uint64_t sampler_seed) {
  core::StreamApproxConfig config;
  config.topic = kTopic;
  config.queries = query_mix(workload);
  config.budget = estimation::QueryBudget::fraction(kBudgetFraction);
  config.window = workload.window;
  config.workers = workers;
  config.seed = sampler_seed;
  return config;
}

// --------------------------------------------------------------------- Gate

Gate::Gate(const Workload& workload, const std::vector<WindowResult>& exact)
    : primary_(workload.primary), primary_name_(workload.primary_name) {
  const QuerySet mix = query_mix(workload);
  for (const auto& sink : mix.sinks()) {
    QueryShape shape;
    shape.name = sink->name();
    shape.sketch = sink->mutable_sketch_spec() != nullptr;
    shape.per_stratum = shape.name == primary_name_ && primary_.per_stratum;
    queries_.push_back(shape);
  }
  exact_primary_ = core::evaluate_windows(exact, primary_);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    std::uint64_t seen = 0;
    for (const auto& cell : exact[i].cells) seen += cell.seen;
    expected_[exact[i].window_end_us] = {seen,
                                         exact_primary_[i].groups.size()};
  }
}

void Gate::check(const std::vector<WindowOutput>& outputs, bool score) {
  std::map<std::int64_t, const WindowOutput*> by_end;
  for (const auto& output : outputs) {
    by_end[output.estimate.window_end_us] = &output;
  }
  std::vector<WindowEstimate> approx;
  std::vector<double> z;
  for (const auto& [end, shape] : expected_) {
    const auto [seen, strata] = shape;
    const auto found = by_end.find(end);
    const WindowOutput* window =
        found == by_end.end() ? nullptr : found->second;
    const bool window_ok = window != nullptr && window->records_seen == seen;
    for (const auto& query : queries_) {
      ++attempted_;
      const core::QueryOutput* output = nullptr;
      if (window_ok) {
        for (const auto& q : window->queries) {
          if (q.name == query.name) output = &q;
        }
      }
      bool ok = output != nullptr;
      if (ok && query.sketch) {
        ok = output->sketch && output->sketch->stream_count == seen;
      } else if (ok) {
        ok = output->estimate.groups.size() ==
             (query.per_stratum ? strata : 0);
      }
      if (!ok) {
        ++failed_;
        continue;
      }
      if (query.name == primary_name_) {
        approx.push_back(output->estimate);
        z.push_back(output->z);
      }
    }
  }
  if (!score) return;
  losses_.push_back(
      core::mean_accuracy_loss(approx, exact_primary_, primary_) * 100.0);
  std::map<std::int64_t, const WindowEstimate*> exact_by_end;
  for (const auto& e : exact_primary_) exact_by_end[e.window_end_us] = &e;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    const WindowEstimate& truth = *exact_by_end.at(approx[i].window_end_us);
    const auto covered = [&](const estimation::ApproxResult& estimate,
                             double exact_value) {
      ++coverage_terms_;
      // The relative slack absorbs summation-order rounding: a fully
      // sampled stratum has a zero-width interval around a sum added up in
      // another order than the reference's.
      const double slack = 1e-9 * std::abs(exact_value);
      if (std::abs(estimate.estimate - exact_value) <=
          estimate.error_bound(z[i]) + slack) {
        ++coverage_hits_;
      }
    };
    if (!primary_.per_stratum) {
      covered(approx[i].overall, truth.overall.estimate);
      continue;
    }
    for (const auto& [stratum, exact_group] : truth.groups) {
      const auto it = std::find_if(
          approx[i].groups.begin(), approx[i].groups.end(),
          [&](const auto& group) { return group.first == stratum; });
      if (it == approx[i].groups.end()) {
        ++coverage_terms_;  // a missed group never covers its exact value
      } else {
        covered(it->second, exact_group.estimate);
      }
    }
  }
}

double Gate::accuracy_loss_pct() const {
  return losses_.empty() ? 0.0 : streamapprox::mean_of(losses_);
}

double Gate::bound_coverage() const {
  return coverage_terms_ == 0 ? 0.0
                              : static_cast<double>(coverage_hits_) /
                                    static_cast<double>(coverage_terms_);
}

// ------------------------------------------------------------------ helpers

double quantile(std::vector<double> xs, double q) {
  return streamapprox::quantile_of(std::move(xs), q);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace ledger
