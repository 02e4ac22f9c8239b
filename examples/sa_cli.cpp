// Command-line driver over the evaluation harness: run any of the six
// systems over any built-in workload and print windows, throughput and
// accuracy loss. Handy for poking at parameter combinations without
// recompiling.
//
//   sa_cli --system flink-approx --workload netflow --fraction 0.4
//          --duration 10 --window 4 --slide 2 --workers 4 [--per-stratum]
//
// A rejected configuration (e.g. --slide larger than --window) prints
// "sa_cli: error: <reason>" to stderr and exits with status 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/table.h"
#include "core/query.h"
#include "core/systems.h"
#include "workload/netflow.h"
#include "workload/synthetic.h"
#include "workload/taxi.h"

namespace {

using namespace streamapprox;

struct Options {
  std::string system = "flink-approx";
  std::string workload = "gaussian";
  double fraction = 0.6;
  double duration_s = 10.0;
  double rate = 50000.0;
  int window_s = 4;
  int slide_s = 2;
  std::size_t workers = 4;
  bool per_stratum = false;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: sa_cli [--system flink-approx|spark-approx|spark-srs|"
      "spark-sts|native-spark|native-flink]\n"
      "              [--workload gaussian|skewed-gaussian|skewed-poisson|"
      "netflow|taxi]\n"
      "              [--fraction F] [--duration SECONDS] [--rate ITEMS/S]\n"
      "              [--window S] [--slide S] [--workers N] [--seed N]\n"
      "              [--per-stratum]\n");
  std::exit(2);
}

core::SystemKind parse_system(const std::string& name) {
  if (name == "flink-approx") return core::SystemKind::kFlinkApprox;
  if (name == "spark-approx") return core::SystemKind::kSparkApprox;
  if (name == "spark-srs") return core::SystemKind::kSparkSRS;
  if (name == "spark-sts") return core::SystemKind::kSparkSTS;
  if (name == "native-spark") return core::SystemKind::kNativeSpark;
  if (name == "native-flink") return core::SystemKind::kNativeFlink;
  std::fprintf(stderr, "unknown system: %s\n", name.c_str());
  usage();
}

std::vector<engine::Record> make_workload(const Options& options) {
  if (options.workload == "gaussian") {
    return workload::SyntheticStream(
               workload::gaussian_substreams(options.rate), options.seed)
        .generate(options.duration_s);
  }
  if (options.workload == "skewed-gaussian") {
    return workload::SyntheticStream(
               workload::skewed_gaussian_substreams(options.rate),
               options.seed)
        .generate(options.duration_s);
  }
  if (options.workload == "skewed-poisson") {
    return workload::SyntheticStream(
               workload::skewed_poisson_substreams(options.rate),
               options.seed)
        .generate(options.duration_s);
  }
  if (options.workload == "netflow") {
    workload::NetFlowConfig config;
    config.flows_per_sec = options.rate;
    return workload::generate_netflow(
        config,
        static_cast<std::size_t>(options.rate * options.duration_s),
        options.seed);
  }
  if (options.workload == "taxi") {
    workload::TaxiConfig config;
    config.rides_per_sec = options.rate;
    return workload::generate_taxi_rides(
        config,
        static_cast<std::size_t>(options.rate * options.duration_s),
        options.seed);
  }
  std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
  usage();
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--system") {
      options.system = next();
    } else if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--fraction") {
      options.fraction = std::atof(next().c_str());
    } else if (arg == "--duration") {
      options.duration_s = std::atof(next().c_str());
    } else if (arg == "--rate") {
      options.rate = std::atof(next().c_str());
    } else if (arg == "--window") {
      options.window_s = std::atoi(next().c_str());
    } else if (arg == "--slide") {
      options.slide_s = std::atoi(next().c_str());
    } else if (arg == "--workers") {
      options.workers = static_cast<std::size_t>(std::atoi(next().c_str()));
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(
          std::strtoull(next().c_str(), nullptr, 10));
    } else if (arg == "--per-stratum") {
      options.per_stratum = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  return options;
}

/// Runs one configuration end to end; throws on an invalid configuration.
void run(const Options& options) {
  const auto kind = parse_system(options.system);
  const auto records = make_workload(options);

  core::SystemConfig config;
  config.sampling_fraction = options.fraction;
  config.workers = options.workers;
  config.window = {options.window_s * 1'000'000LL,
                   options.slide_s * 1'000'000LL};
  config.seed = options.seed;

  std::printf("system=%s workload=%s records=%zu fraction=%.2f window=%ds "
              "slide=%ds workers=%zu\n\n",
              core::system_name(kind).c_str(), options.workload.c_str(),
              records.size(), options.fraction, options.window_s,
              options.slide_s, options.workers);

  const auto result = core::run_system(kind, records, config);
  const auto exact = core::exact_window_results(records, config.window);

  const core::QuerySpec query{core::Aggregation::kMean, options.per_stratum};
  const auto approx_estimates = core::evaluate_windows(result.windows, query);
  const auto exact_estimates = core::evaluate_windows(exact, query);

  Table table("windows (MEAN query)",
              {"end (s)", "approx", "+/- (95%)", "exact"});
  for (const auto& window : approx_estimates) {
    double exact_value = 0.0;
    for (const auto& w : exact_estimates) {
      if (w.window_end_us == window.window_end_us) {
        exact_value = w.overall.estimate;
      }
    }
    table.add_row({Table::num(static_cast<double>(window.window_end_us) / 1e6,
                              0),
                   Table::num(window.overall.estimate, 3),
                   Table::num(window.overall.error_bound(2.0), 3),
                   Table::num(exact_value, 3)});
  }
  table.print();

  const double loss =
      core::mean_accuracy_loss(approx_estimates, exact_estimates, query);
  std::printf("\nthroughput: %.2fM items/s   latency: %.2fs   accuracy loss: "
              "%.4f%%\n",
              result.throughput() / 1e6, result.wall_seconds, 100.0 * loss);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sa_cli: error: %s\n", error.what());
    return 2;
  }
  return 0;
}
