// Adaptive query budgets (paper Fig. 3's feedback loop and the §7 cost
// function): the user states a TARGET ACCURACY instead of a sampling
// fraction; StreamApprox starts from a small sample budget and the
// error-estimation module re-tunes it every window until the observed error
// bound meets the target. Watch the per-slide budget climb and the bound
// tighten.
#include <cstdio>

#include "core/stream_approx.h"
#include "ingest/replay.h"
#include "workload/synthetic.h"

int main() {
  using namespace streamapprox;

  // A noisy skewed stream makes the accuracy target non-trivial.
  workload::SyntheticStream stream(
      workload::skewed_gaussian_substreams(40000.0), /*seed=*/11);
  const auto records = stream.generate(20.0);

  ingest::Broker broker;
  broker.create_topic("adaptive", 3);
  ingest::ReplayTool replay(broker, "adaptive", records, {});

  core::StreamApproxConfig config;
  config.topic = "adaptive";
  config.queries.aggregate("query",
                           {core::Aggregation::kSum, /*per_stratum=*/false});
  // Query budget: a 95%-confidence relative error bound of 0.5%.
  config.budget = estimation::QueryBudget::relative_error(0.005);
  config.window = {2'000'000, 1'000'000};

  core::StreamApprox system(broker, config);

  std::printf("target: 95%% relative error bound <= 0.500%%\n\n");
  std::printf("%-8s %-16s %-12s %-12s %s\n", "window", "SUM estimate",
              "bound (%)", "budget", "sampled/seen");
  system.run([&](const core::WindowOutput& output) {
    const auto& overall = output.estimate.overall;
    std::printf("%6.0fs %16.3e %10.3f%% %10zu %10llu/%llu\n",
                static_cast<double>(output.estimate.window_end_us) / 1e6,
                overall.estimate, 100.0 * overall.relative_bound(2.0),
                output.budget_in_force,
                static_cast<unsigned long long>(output.records_sampled),
                static_cast<unsigned long long>(output.records_seen));
  });
  replay.wait();

  std::printf("\nThe sample budget rises only as far as the accuracy target "
              "requires — resources follow the query budget, not the "
              "stream size.\n");
  return 0;
}
