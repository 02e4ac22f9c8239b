#include "core/stream_approx.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/clock.h"
#include "core/watermark.h"
#include "engine/window.h"

namespace streamapprox::core {

StreamApprox::StreamApprox(ingest::Broker& broker, StreamApproxConfig config)
    : broker_(broker), config_(std::move(config)) {
  // Validated eagerly so misconfiguration fails at construction.
  engine::SlidingWindowAssembler probe(config_.window);
  (void)probe;
  // A zero-record poll never reads a sealed topic as exhausted, so the
  // sequential loop would never return.
  if (config_.poll_batch == 0) {
    throw std::invalid_argument("StreamApprox: poll_batch must be >= 1");
  }
  broker_.topic(config_.topic);  // throws if missing
}

std::shared_ptr<QuerySubscription> StreamApprox::attach_query(
    std::unique_ptr<QuerySink> sink, std::size_t subscription_capacity) {
  if (!sink) return nullptr;
  std::lock_guard lock(control_mutex_);
  if (live_driver_ != nullptr) {
    return live_driver_->attach_query(std::move(sink), subscription_capacity);
  }
  // No run yet: create the channel now and queue the attach for the next
  // run's driver, where it applies before the first slide closes.
  PendingAttach pending;
  pending.sink = std::move(sink);
  if (subscription_capacity > 0) {
    pending.subscription =
        std::make_shared<QuerySubscription>(subscription_capacity);
  }
  auto subscription = pending.subscription;
  pre_run_attaches_.push_back(std::move(pending));
  return subscription;
}

bool StreamApprox::detach_query(const std::string& name) {
  std::lock_guard lock(control_mutex_);
  if (live_driver_ != nullptr) return live_driver_->detach_query(name);
  for (auto it = pre_run_attaches_.begin(); it != pre_run_attaches_.end();
       ++it) {
    if (it->sink->name() == name) {
      // The cancelled attach never reaches a driver: close its channel here
      // so a waiting consumer observes finished().
      if (it->subscription) it->subscription->close();
      pre_run_attaches_.erase(it);
      return true;
    }
  }
  // A config-registered query: queue the detach so the next run's driver
  // drops it before the first slide closes. A name already slated is gone
  // as far as the caller is concerned — don't queue (and count) it twice.
  if (config_has_query(name) &&
      std::find(pre_run_detaches_.begin(), pre_run_detaches_.end(), name) ==
          pre_run_detaches_.end()) {
    pre_run_detaches_.push_back(name);
    return true;
  }
  return false;
}

bool StreamApprox::config_has_query(const std::string& name) const {
  for (const auto& sink : config_.queries.sinks()) {
    if (sink->name() == name) return true;
  }
  return false;
}

StreamApprox::~StreamApprox() {
  // Pre-run attaches that never reached a driver still hold live channels:
  // close them so consumers are not left waiting on finished().
  std::lock_guard lock(control_mutex_);
  for (auto& pending : pre_run_attaches_) {
    if (pending.subscription) pending.subscription->close();
  }
}

std::size_t StreamApprox::query_count() const {
  std::lock_guard lock(control_mutex_);
  if (live_driver_ != nullptr) return live_driver_->query_count();
  const std::size_t total =
      config_.queries.size() + pre_run_attaches_.size();
  return total > pre_run_detaches_.size() ? total - pre_run_detaches_.size()
                                          : 0;
}

void StreamApprox::install_driver(PipelineDriver& driver) {
  std::lock_guard lock(control_mutex_);
  for (auto& pending : pre_run_attaches_) {
    driver.attach_query(std::move(pending.sink),
                        std::move(pending.subscription));
  }
  for (const auto& name : pre_run_detaches_) driver.detach_query(name);
  pre_run_attaches_.clear();
  pre_run_detaches_.clear();
  live_driver_ = &driver;
}

void StreamApprox::uninstall_driver() {
  std::lock_guard lock(control_mutex_);
  live_driver_ = nullptr;
}

PipelineDriverConfig StreamApprox::driver_config() const {
  PipelineDriverConfig driver;
  driver.queries = config_.queries;
  driver.budget = config_.budget;
  driver.window = config_.window;
  driver.query_cost = config_.query_cost;
  driver.z = config_.z;
  driver.seed = config_.seed;
  return driver;
}

void StreamApprox::run(
    const std::function<void(const WindowOutput&)>& on_window) {
  run_stats_ = ShardedRunStats{};
  run_stats_.workers = 1;
  // The exchange decouples workers from partitions, so any workers > 1
  // shards, whatever the topic's partition count.
  if (config_.workers > 1) {
    run_sharded(on_window);
  } else {
    run_sequential(on_window);
  }
}

void StreamApprox::run_sequential(
    const std::function<void(const WindowOutput&)>& on_window) {
  auto& topic = broker_.topic(config_.topic);
  ingest::Consumer consumer(broker_, config_.topic);
  PipelineDriver driver(driver_config(), on_window);
  const DriverInstallation installation(*this, driver);
  slide_budget_ = driver.current_budget();

  // Per-partition high-water clocks driving the shared low-watermark policy
  // (core/watermark.h): records from a partition whose backlog happens to
  // be polled late are never dropped as spuriously "late", yet an idle
  // partition cannot stall a live stream's windows.
  std::vector<std::int64_t> clocks(topic.partition_count(), kNoClock);
  Stopwatch idle_watch;

  // The ingest-work accumulator feeds a volatile sink so the parse-work
  // model cannot be dead-code-eliminated.
  double ingest_acc = 0.0;
  // Reused poll buffer: steady-state polling is allocation-free.
  std::vector<engine::Record> records;
  records.reserve(config_.poll_batch);
  for (;;) {
    consumer.poll(records, config_.poll_batch, /*timeout_ms=*/50);
    // The grace window is measured from the LAST poll that returned data,
    // so a partition that never delivered keeps gating while the others
    // still deliver (the exchange applies the same rule per round).
    if (!records.empty()) idle_watch.restart();
    for (const auto& record : records) {
      ingest_acc += config_.ingest_cost.charge(record.value);  // parse work
      auto& clock = clocks[topic.partition_for_key(record.stratum)];
      clock = std::max(clock, record.event_time_us);
    }
    driver.offer_batch(records);
    for (std::size_t slot = 0; slot < consumer.assignment().size(); ++slot) {
      if (consumer.partition_exhausted(slot)) {
        clocks[consumer.assignment()[slot]] = kPartitionDrained;
      }
    }
    const bool grace_over =
        idle_watch.millis() > static_cast<double>(
                                  config_.idle_partition_timeout_ms);
    const auto view = evaluate_watermark(clocks, grace_over);
    if (view.can_close()) {
      driver.advance(view.watermark);
    } else if (view.flush_all()) {
      // No partition gates (drained and/or idle past grace): flush what is
      // buffered so output is never stranded behind an unsealed idle
      // partition. Idempotent, and also covers end-of-stream.
      driver.finish();
    }
    slide_budget_ = driver.current_budget();
    if (records.empty() && consumer.exhausted()) break;
  }
  volatile double ingest_sink = ingest_acc;
  (void)ingest_sink;
  finish_run(driver);
}

void StreamApprox::finish_run(PipelineDriver& driver) {
  driver.finish();
  slide_budget_ = driver.current_budget();
  const sampling::OasrsKernelStats& kernel = driver.kernel_stats();
  run_stats_.sampler_bulk_runs = kernel.bulk_runs;
  run_stats_.sampler_accepts = kernel.accepted;
  run_stats_.sampler_skipped = kernel.skipped;
}

}  // namespace streamapprox::core
