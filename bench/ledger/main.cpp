// The ledger binary: runs ONE workload through the StreamApprox facade and
// prints one JSON line — every metric with its unit, the correctness
// gate's attempted/failed counts and the run's meta data. bench/ledger/run.py
// builds it, runs each workload in its own process and formats the results.
//
//   ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//          [--scale F] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the staged, traced pass (traced.cpp) for the per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

#include "ledger.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define LEDGER_COMPILER "clang " __clang_version__
#else
#define LEDGER_COMPILER "gcc " __VERSION__
#endif

namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepetitions = 3;
constexpr std::size_t kMaxTimedRuns = 200;
/// Coverage of the traced wall time by top-level spans below this fails the
/// traced pass: the per-layer numbers would leave too much time unexplained.
constexpr double kMinSpanCoverage = 0.90;
/// Drift above this means the paced run's backlog grew.
constexpr double kMaxDrift = 1.5;
/// Extra replays of the paced schedule for accuracy and coverage, and how
/// much faster than the 1x run they send (a quarter of two-worker capacity).
constexpr std::uint64_t kPacedReplays = 3;
constexpr double kReplaySpeed = 4.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--scale") {
      args.scale = std::stod(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0) || !(args.scale > 0.0)) {
    throw std::invalid_argument("--seconds and --scale must be positive");
  }
  return args;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t sampler_seed(std::uint64_t seed, std::uint64_t run) {
  return seed * 1'000'003ULL + run + 2017;
}

/// Facade counters summed over runs.
struct Counters {
  std::uint64_t batches = 0;
  std::uint64_t steals = 0;
  std::uint64_t injector_pops = 0;
  std::uint64_t exchange_records = 0;
  std::uint64_t exchange_runs = 0;
  std::uint64_t exchange_probes = 0;
  std::uint64_t sampler_accepts = 0;
  std::uint64_t sampler_skipped = 0;
  std::vector<double> imbalance;
  std::vector<double> lag_ms;
};

/// Everything the ledger takes from StreamApprox::last_run_stats(), read
/// after run() returns, outside the timed interval. RunMetrics will replace
/// ShardedRunStats; this is the one function that changes then.
void read_counters(const core::StreamApprox& system, Counters& into) {
  const core::ShardedRunStats& stats = system.last_run_stats();
  into.batches += stats.batches_absorbed;
  into.steals += stats.steals;
  into.injector_pops += stats.injector_pops;
  into.exchange_records += stats.exchange_records_routed;
  into.exchange_runs += stats.exchange_runs_walked;
  into.exchange_probes += stats.exchange_table_probes;
  into.sampler_accepts += stats.sampler_accepts;
  into.sampler_skipped += stats.sampler_skipped;
  if (!stats.per_worker_records.empty()) {
    double sum = 0.0;
    double max = 0.0;
    for (const auto records : stats.per_worker_records) {
      sum += static_cast<double>(records);
      max = std::max(max, static_cast<double>(records));
    }
    const double mean = sum / static_cast<double>(stats.per_worker_records.size());
    if (mean > 0.0) into.imbalance.push_back(max / mean);
  }
  for (const auto lag_us : stats.watermark_lag_us) {
    into.lag_ms.push_back(static_cast<double>(lag_us) / 1e3);
  }
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void add_scheduler_metrics(const Counters& c, Metrics& m) {
  const auto batches = static_cast<double>(c.batches);
  m["scheduler.steal_share"] = {share(static_cast<double>(c.steals), batches),
                                "fraction"};
  m["scheduler.injector_share"] = {
      share(static_cast<double>(c.injector_pops), batches), "fraction"};
  m["scheduler.worker_imbalance"] = {
      c.imbalance.empty() ? 1.0 : quantile(c.imbalance, 0.5), "ratio"};
  m["scheduler.watermark_lag_p50_ms"] = {quantile(c.lag_ms, 0.5), "ms"};
  m["scheduler.watermark_lag_p95_ms"] = {quantile(c.lag_ms, 0.95), "ms"};
}

/// One facade run's outputs with the steady-clock time each was emitted.
struct RunResult {
  double wall_s = 0.0;
  std::vector<WindowOutput> outputs;
  std::vector<Clock::time_point> emitted;
};

/// Window outputs summed into the sampled fraction (records_sampled over
/// records_seen).
struct SampledFraction {
  double seen = 0.0;
  double sampled = 0.0;
  void add(const RunResult& run) {
    for (const auto& output : run.outputs) {
      seen += static_cast<double>(output.records_seen);
      sampled += static_cast<double>(output.records_sampled);
    }
  }
  double value() const { return share(sampled, seen); }
};

/// One run() over an already loaded topic; only run() is timed.
RunResult run_facade(ingest::Broker& broker,
                     const core::StreamApproxConfig& config,
                     std::size_t expected_windows, Counters* counters) {
  core::StreamApprox system(broker, config);
  RunResult result;
  result.outputs.reserve(expected_windows + 8);
  result.emitted.reserve(expected_windows + 8);
  const auto start = Clock::now();
  system.run([&](const WindowOutput& output) {
    result.emitted.push_back(Clock::now());
    result.outputs.push_back(output);
  });
  result.wall_s = seconds_between(start, Clock::now());
  if (counters != nullptr) read_counters(system, *counters);
  return result;
}

std::unique_ptr<ingest::Broker> preload(const Workload& workload,
                                        const std::vector<Record>& records) {
  auto broker = std::make_unique<ingest::Broker>();
  broker->create_topic(kTopic, workload.partitions);
  ingest::Producer producer(*broker, kTopic);
  producer.send_batch(records);
  producer.finish();
  return broker;
}

/// Set-up as a user pays it: preload a fresh topic and construct the
/// facade. Median of kSetupRepetitions; the last loaded broker is returned.
double measure_setup(const Workload& workload,
                     const std::vector<Record>& records, std::uint64_t seed,
                     std::unique_ptr<ingest::Broker>& loaded) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    loaded.reset();  // one loaded topic at a time keeps peak_rss_mb honest
    const auto start = Clock::now();
    loaded = preload(workload, records);
    const core::StreamApprox system(
        *loaded, facade_config(workload, workload.workers, seed));
    times.push_back(seconds_between(start, Clock::now()));
  }
  return quantile(times, 0.5);
}

/// Open-loop generator lag: how late (µs) each record was sent after its
/// due time, in 1 µs buckets up to 100 ms.
class LagHistogram {
 public:
  void add(std::int64_t lag_us) {
    const auto bucket = static_cast<std::size_t>(
        std::clamp<std::int64_t>(lag_us, 0, kBuckets - 1));
    ++counts_[bucket];
    ++total_;
  }
  double quantile_ms(double q) const {
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= target && seen > 0) return static_cast<double>(b) / 1e3;
    }
    return 0.0;
  }

 private:
  static constexpr std::int64_t kBuckets = 100'000;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// The paced workload's run: one generator thread sends each record once
/// t0 + event_time_us has passed, while run() consumes the unsealed topic.
struct PacedRun {
  RunResult run;
  Clock::time_point t0;
  /// Send start minus due time: includes stalls inside Producer::send (the
  /// broker's append path, part of the system under test).
  LagHistogram send_lag;
  /// The generator's own lateness: send start minus the later of the due
  /// time and the end of the previous send. This is what makes a run
  /// invalid: the load, not the system, fell behind.
  LagHistogram own_lag;
};

/// `speed` > 1 replays the same schedule faster (record i is due at
/// t0 + event_time_us / speed).
void run_paced(const Workload& workload, const std::vector<Record>& records,
               const core::StreamApproxConfig& config,
               std::size_t expected_windows, double speed, Counters* counters,
               PacedRun& paced) {
  ingest::Broker broker;
  broker.create_topic(kTopic, workload.partitions);
  core::StreamApprox system(broker, config);
  paced.t0 = Clock::now() + std::chrono::milliseconds(50);
  paced.run.outputs.reserve(expected_windows + 8);
  paced.run.emitted.reserve(expected_windows + 8);
  {
    const std::jthread generator([&] {
      const auto since_t0_us = [&] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - paced.t0)
            .count();
      };
      ingest::Producer producer(broker, kTopic);
      std::int64_t previous_end = 0;
      std::size_t i = 0;
      while (i < records.size()) {
        const auto due = static_cast<std::int64_t>(
            static_cast<double>(records[i].event_time_us) / speed);
        // Sleep, never spin: the timer wakes the thread every ~60 us and it
        // sends what fell due meanwhile, so the generator takes about a
        // tenth of a CPU instead of one of the four the system runs on.
        // Its lateness is measured, and latency counts from the due time.
        const std::int64_t start = since_t0_us();
        if (start < due) {
          std::this_thread::sleep_for(std::chrono::microseconds(due - start));
          continue;
        }
        paced.send_lag.add(start - due);
        paced.own_lag.add(start - std::max(due, previous_end));
        producer.send(records[i++]);
        previous_end = since_t0_us();
      }
      producer.finish();
    });
    const auto start = Clock::now();
    system.run([&](const WindowOutput& output) {
      paced.run.emitted.push_back(Clock::now());
      paced.run.outputs.push_back(output);
    });
    paced.run.wall_s = seconds_between(start, Clock::now());
  }
  if (counters != nullptr) read_counters(system, *counters);
}

/// Per-window latency of the paced run: emission time minus the due time of
/// the window's last event.
std::vector<double> paced_latencies_ms(const PacedRun& paced,
                                       const std::vector<Record>& records) {
  std::vector<double> latencies;
  for (std::size_t k = 0; k < paced.run.outputs.size(); ++k) {
    const std::int64_t end = paced.run.outputs[k].estimate.window_end_us;
    const auto last = std::lower_bound(
        records.begin(), records.end(), end,
        [](const Record& r, std::int64_t t) { return r.event_time_us < t; });
    if (last == records.begin()) continue;
    const double due_ms = static_cast<double>(std::prev(last)->event_time_us) / 1e3;
    const double emitted_ms =
        std::chrono::duration<double, std::milli>(paced.run.emitted[k] -
                                                  paced.t0)
            .count();
    latencies.push_back(emitted_ms - due_ms);
  }
  return latencies;
}

/// Per-window latency under a backlog: the whole preloaded input is due at
/// once, so a window's latency runs from the previous window's emission.
void append_gaps_ms(const RunResult& run, std::vector<double>& gaps) {
  for (std::size_t k = 1; k < run.emitted.size(); ++k) {
    gaps.push_back(std::chrono::duration<double, std::milli>(
                       run.emitted[k] - run.emitted[k - 1])
                       .count());
  }
}

/// The paced run's validity: the generator kept its schedule (its own lag
/// p99 is below the latency p50) and the backlog did not grow (the second
/// half's latency p50 is at most kMaxDrift times the first half's).
void add_validity(const PacedRun& paced, const std::vector<double>& latencies,
                  Metrics& m) {
  const std::size_t half = latencies.size() / 2;
  const double first = quantile(
      std::vector<double>(latencies.begin(), latencies.begin() + half), 0.5);
  const double second = quantile(
      std::vector<double>(latencies.begin() + half, latencies.end()), 0.5);
  const double drift = share(second, first);
  const double lag_p99 = paced.own_lag.quantile_ms(0.99);
  m["gen.lag_p99_ms"] = {lag_p99, "ms"};
  m["gen.send_lag_p99_ms"] = {paced.send_lag.quantile_ms(0.99), "ms"};
  m["latency.drift_ratio"] = {drift, "ratio"};
  const bool generator_ok = lag_p99 <= quantile(latencies, 0.5);
  const bool backlog_ok = drift <= kMaxDrift;
  m["run.valid"] = {generator_ok && backlog_ok ? 1.0 : 0.0, "flag"};
  if (!generator_ok) {
    std::fprintf(stderr, "ledger: INVALID run: generator lag p99 %.3f ms "
                         "exceeds latency p50\n", lag_p99);
  }
  if (!backlog_ok) {
    std::fprintf(stderr, "ledger: INVALID run: latency drift %.2f > %.1f, "
                         "the backlog grew\n", drift, kMaxDrift);
  }
}

/// p50 and p90 are the bounded metrics. p95 and p99 are reported too, but
/// on the paced workload about 4% of windows wait behind partition-log
/// growth in the broker, so p95 sits on the edge of that group and flips
/// between it and the steady tail from run to run.
void add_latency(const std::vector<double>& latencies, Metrics& m) {
  m["latency_p50_ms"] = {quantile(latencies, 0.5), "ms"};
  m["latency_p90_ms"] = {quantile(latencies, 0.9), "ms"};
  m["latency_p95_ms"] = {quantile(latencies, 0.95), "ms"};
  m["latency_p99_ms"] = {quantile(latencies, 0.99), "ms"};
  m["latency.samples"] = {static_cast<double>(latencies.size()), "count"};
}

void add_counter_metrics(const Workload& workload, const Counters& counters,
                         const SampledFraction& fraction, Metrics& m) {
  m["sampling.sampled_fraction"] = {fraction.value(), "fraction"};
  if (workload.workers == 1) return;  // the sequential path keeps no counters
  add_scheduler_metrics(counters, m);
  const auto runs = static_cast<double>(counters.exchange_runs);
  m["exchange.records_per_run"] = {
      share(static_cast<double>(counters.exchange_records), runs), "count"};
  m["exchange.probes_per_run"] = {
      share(static_cast<double>(counters.exchange_probes), runs), "count"};
  m["sampling.accept_share"] = {
      share(static_cast<double>(counters.sampler_accepts),
            static_cast<double>(counters.sampler_accepts +
                                counters.sampler_skipped)),
      "fraction"};
}

/// --trace 0: the end-to-end metrics, nothing traced.
Metrics end_to_end(const Workload& workload, const std::vector<Record>& records,
                   Gate& gate, const Args& args) {
  Metrics m;
  Counters counters;
  SampledFraction fraction;
  std::unique_ptr<ingest::Broker> broker;
  m["setup_s"] = {measure_setup(workload, records, args.seed, broker), "s"};
  std::vector<double> throughput;
  std::vector<double> latencies;
  if (workload.paced) {
    broker.reset();  // the paced run streams into a fresh, empty topic
    PacedRun paced;
    run_paced(workload, records,
              facade_config(workload, workload.workers,
                            sampler_seed(args.seed, 0)),
              gate.windows(), 1.0, &counters, paced);
    gate.check(paced.run.outputs, /*score=*/true);
    fraction.add(paced.run);
    // One paced run holds only about `seconds` independent windows of
    // heavy-tailed flow sizes, too few for a steady accuracy figure. Faster
    // replays of the same schedule give each slide the same budget and the
    // same records, so they add sampling replicates for the accuracy,
    // coverage and correctness checks; latency comes from the 1x run only.
    for (std::uint64_t replay = 1; replay <= kPacedReplays; ++replay) {
      PacedRun again;
      run_paced(workload, records,
                facade_config(workload, workload.workers,
                              sampler_seed(args.seed, replay)),
                gate.windows(), kReplaySpeed, nullptr, again);
      gate.check(again.run.outputs, /*score=*/true);
    }
    throughput.push_back(static_cast<double>(records.size()) /
                         paced.run.wall_s);
    latencies = paced_latencies_ms(paced, records);
    add_validity(paced, latencies, m);
  } else {
    // Warm-up: caches, allocator arenas and lazy set-up, checked, untimed.
    gate.check(run_facade(*broker,
                          facade_config(workload, workload.workers,
                                        sampler_seed(args.seed, 0)),
                          gate.windows(), nullptr)
                   .outputs,
               /*score=*/false);
    double timed = 0.0;
    for (std::uint64_t run = 1;
         (throughput.size() < workload.min_timed_runs || timed < args.seconds) &&
         throughput.size() < kMaxTimedRuns;
         ++run) {
      const RunResult result = run_facade(
          *broker,
          facade_config(workload, workload.workers,
                        sampler_seed(args.seed, run)),
          gate.windows(), &counters);
      timed += result.wall_s;
      throughput.push_back(static_cast<double>(records.size()) /
                           result.wall_s);
      append_gaps_ms(result, latencies);
      fraction.add(result);
      gate.check(result.outputs, /*score=*/true);
    }
  }
  m["throughput_rps"] = {quantile(throughput, 0.5), "records/s"};
  m["timed_runs"] = {static_cast<double>(throughput.size()), "count"};
  add_latency(latencies, m);
  m["accuracy_loss_pct"] = {gate.accuracy_loss_pct(), "%"};
  m["bound_coverage"] = {gate.bound_coverage(), "fraction"};
  m["bound_coverage.samples"] = {static_cast<double>(gate.coverage_terms()),
                                 "count"};
  add_counter_metrics(workload, counters, fraction, m);
  return m;
}

/// --trace 1: facade runs for the counters the facade keeps (untimed), then
/// the staged traced pass. The sequential workload's scheduler counters
/// come from a two-worker run of the same topic, since its own path has no
/// scheduler.
Metrics traced(const Workload& workload, const std::vector<Record>& records,
               Gate& gate, const Args& args) {
  Counters counters;
  SampledFraction fraction;
  std::vector<double> walls;
  if (workload.paced) {
    PacedRun paced;
    run_paced(workload, records,
              facade_config(workload, workload.workers,
                            sampler_seed(args.seed, 0)),
              gate.windows(), 1.0, &counters, paced);
    gate.check(paced.run.outputs, /*score=*/false);
    fraction.add(paced.run);
    walls.push_back(paced.run.wall_s);
  } else {
    const auto broker = preload(workload, records);
    for (std::uint64_t run = 0; run < 3; ++run) {
      const auto config = facade_config(workload, workload.workers,
                                        sampler_seed(args.seed, run));
      const RunResult result =
          run_facade(*broker, config, gate.windows(), &counters);
      gate.check(result.outputs, /*score=*/false);
      fraction.add(result);
      walls.push_back(result.wall_s);
    }
    if (workload.workers == 1) {
      for (std::uint64_t run = 0; run < 3; ++run) {
        run_facade(*broker,
                   facade_config(workload, 2, sampler_seed(args.seed, run)),
                   gate.windows(), &counters);
      }
    }
  }
  TraceInput input;
  input.workload = &workload;
  input.records = &records;
  input.gate = &gate;
  input.seed = sampler_seed(args.seed, 0);
  input.trace_path = args.trace_out;
  Metrics m = run_traced(input);
  add_scheduler_metrics(counters, m);
  m["sampling.sampled_fraction"] = {fraction.value(), "fraction"};
  m["trace.overhead_ratio"] = {
      m["trace.wall_s"].value / quantile(walls, 0.5), "ratio"};
  return m;
}

/// A metric that is not a finite number is a bug in the measurement: it is
/// reported, printed as 0 to keep the JSON valid, and fails the run.
std::uint64_t non_finite(Metrics& metrics) {
  std::uint64_t bad = 0;
  for (auto& [name, metric] : metrics) {
    if (std::isfinite(metric.value)) continue;
    std::fprintf(stderr, "ledger: %s is not finite\n", name.c_str());
    metric.value = 0.0;
    ++bad;
  }
  return bad;
}

void print_metrics(const Metrics& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                first ? "" : ",", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ledger: %s\n", error.what());
    return 2;
  }
  const Workload& workload = *find_workload(args.workload);
  const auto records =
      generate(workload, input_size(workload, args.seconds, args.scale),
               args.seed);
  Gate gate(workload, core::exact_window_results(records, workload.window));

  Metrics metrics = args.trace ? traced(workload, records, gate, args)
                               : end_to_end(workload, records, gate, args);
  metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  std::uint64_t attempted = gate.attempted();
  std::uint64_t failed = gate.failed();
  if (attempted == 0) {  // no window to check is a failed run, not a pass
    attempted = 1;
    failed = 1;
  }
  if (args.trace) {
    ++attempted;
    if (metrics["trace.span_coverage"].value < kMinSpanCoverage) ++failed;
  }
  const std::uint64_t bad = non_finite(metrics);
  attempted += bad;
  failed += bad;
  metrics["failed_share"] = {
      static_cast<double>(failed) / static_cast<double>(attempted), "fraction"};

  std::printf("{\"workload\":\"%s\",\"trace\":%d,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"metrics\":",
              workload.name.c_str(), args.trace ? 1 : 0,
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics(metrics);
  std::printf(",\"meta\":{\"seed\":%llu,\"seconds\":%.17g,\"scale\":%.17g,"
              "\"records\":%zu,\"workers\":%zu,\"hardware_threads\":%u,"
              "\"compiler\":\"%s\",\"build_type\":\"%s\"}}\n",
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.scale, records.size(), workload.workers,
              std::thread::hardware_concurrency(), LEDGER_COMPILER,
              LEDGER_BUILD_TYPE);
  return failed == 0 ? 0 : 1;
}
