// Shared pieces of the performance ledger: the four workloads, the query
// mixes they register, the correctness gate every run passes through, and
// the small result record the binary prints.
//
// The ledger drives only the library's public surface (see README.md, "API
// surface"), so a change to one of those calls lands a ledger change first.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/stream_approx.h"
#include "engine/record.h"
#include "engine/window.h"
#include "estimation/histogram_query.h"
#include "ingest/broker.h"
#include "sketch/sketch_query.h"

namespace ledger {

namespace core = streamapprox::core;
namespace engine = streamapprox::engine;
namespace estimation = streamapprox::estimation;
namespace ingest = streamapprox::ingest;
namespace sampling = streamapprox::sampling;
namespace sketch = streamapprox::sketch;

using streamapprox::core::QuerySet;
using streamapprox::core::QuerySpec;
using streamapprox::core::WindowEstimate;
using streamapprox::core::WindowOutput;
using streamapprox::engine::Record;
using streamapprox::engine::WindowConfig;
using streamapprox::engine::WindowResult;

/// The broker topic every run reads.
inline constexpr const char* kTopic = "ledger";

/// Where a workload's records come from.
enum class Source { kNetflow, kTaxi, kZipf };

/// One named workload: its input, its run shape and its query mix.
struct Workload {
  std::string name;
  Source source = Source::kNetflow;
  /// Worker threads of the facade (1 = the sequential path).
  std::size_t workers = 1;
  std::size_t partitions = 1;
  WindowConfig window{2'000'000, 1'000'000};
  /// Open loop: one generator thread sends each record once it is due.
  /// Otherwise the topic is preloaded and sealed before run() (saturation).
  bool paced = false;
  /// Event-time rate of the generated stream (records per second).
  double rate = 0.0;
  /// Records generated for a saturation workload (paced: rate x seconds).
  std::size_t records = 0;
  /// Timed runs at least, even when --seconds has elapsed.
  std::size_t min_timed_runs = 3;
  /// Registers the three sketch queries beside the sample-backed ones.
  bool sketches = true;
  /// The paper's per-stratum query, whose error the ledger reports.
  std::string primary_name;
  QuerySpec primary{};
  estimation::HistogramSpec histogram{};
};

/// The four workloads, in the order the runner visits them.
const std::vector<Workload>& workloads();

/// Looks a workload up by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// Records the workload needs: `records` x `scale` (smoke runs) for a
/// saturation workload, rate x `seconds` for the paced one.
std::size_t input_size(const Workload& workload, double seconds, double scale);

/// Generates the workload's input from `seed` alone, sorted by event time.
std::vector<Record> generate(const Workload& workload, std::size_t count,
                             std::uint64_t seed);

/// The registered queries, primary first: the per-stratum query, a 3-sigma
/// MEAN, a 32-bucket histogram and, with sketches on, Count-Min top-K on the
/// stratum, HyperLogLog on llround(value) and quantiles.
QuerySet query_mix(const Workload& workload);

/// The sketch specs of the full mix, ids assigned 1..3 in registration
/// order (the same ids a driver assigns them).
std::vector<sketch::SketchSpec> full_mix_sketch_specs();

/// The base facade configuration of a workload (the sampler seed varies per
/// run so that repeated runs draw independent samples).
core::StreamApproxConfig facade_config(const Workload& workload,
                                       std::size_t workers,
                                       std::uint64_t sampler_seed);

/// Checks every run's window outputs against the exact answer of the
/// workload's own input, and accumulates the accuracy of the primary query.
class Gate {
 public:
  Gate(const Workload& workload, const std::vector<WindowResult>& exact);

  /// One check per expected (window, registered query). A check fails when
  /// the window is missing, its records_seen differs from the exact count, a
  /// sample-backed query has a different number of groups than the exact
  /// answer, or a sketch query has no payload or digested a different number
  /// of records than the window holds. With `score`, the run also counts
  /// towards accuracy_loss_pct and bound_coverage (timed runs only).
  void check(const std::vector<WindowOutput>& outputs, bool score);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  /// Mean over checked runs of core::mean_accuracy_loss of the primary
  /// query, in percent.
  double accuracy_loss_pct() const;
  /// Share of the primary query's (window, group) estimates whose +-z sigma
  /// interval holds the exact value.
  double bound_coverage() const;
  std::uint64_t coverage_terms() const noexcept { return coverage_terms_; }

  /// Windows in the exact answer.
  std::size_t windows() const noexcept { return exact_primary_.size(); }

 private:
  struct QueryShape {
    std::string name;
    bool sketch = false;
    bool per_stratum = false;
  };

  std::vector<QueryShape> queries_;
  QuerySpec primary_;
  std::string primary_name_;
  std::vector<WindowEstimate> exact_primary_;
  /// Exact records and strata per window end.
  std::map<std::int64_t, std::pair<std::uint64_t, std::size_t>> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> losses_;
  std::uint64_t coverage_hits_ = 0;
  std::uint64_t coverage_terms_ = 0;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Median (q = 0.5) or other quantile of `xs`; 0 for empty input.
double quantile(std::vector<double> xs, double q);

/// The process's peak resident set size in MB (ru_maxrss).
double peak_rss_mb();

/// Everything the traced pass needs from the caller.
struct TraceInput {
  const Workload* workload = nullptr;
  const std::vector<Record>* records = nullptr;
  Gate* gate = nullptr;
  /// Sampler seed of the traced pass's driver.
  std::uint64_t seed = 0;
  /// Where to write the span file (Chrome trace-event JSON).
  std::string trace_path;
};

/// The traced pass: a single-threaded, staged composition of the public
/// calls the facade makes, with a span around every call into a layer.
/// Returns the per-layer metrics; runs its outputs through the gate.
Metrics run_traced(const TraceInput& input);

}  // namespace ledger
