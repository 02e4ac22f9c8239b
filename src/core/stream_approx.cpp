#include "core/stream_approx.h"

#include <algorithm>
#include <stdexcept>

#include "engine/window.h"
#include "ingest/exchange.h"

namespace streamapprox::core {

StreamApprox::StreamApprox(ingest::Broker& broker, StreamApproxConfig config)
    : broker_(broker), config_(std::move(config)) {
  // Validated eagerly so misconfiguration fails at construction.
  engine::SlidingWindowAssembler probe(config_.window);
  (void)probe;
  // A zero-record poll is a misconfiguration in either mode: reject it
  // rather than let the exchange round it up to one record.
  if (config_.poll_batch == 0) {
    throw std::invalid_argument("StreamApprox: poll_batch must be >= 1");
  }
  if (config_.exchange_batch_size == 0) {
    throw std::invalid_argument(
        "StreamApprox: exchange_batch_size must be >= 1");
  }
  broker_.topic(config_.topic);  // throws if missing
}

PipelineDriver& StreamApprox::driver_locked() {
  if (!driver_) {
    PipelineDriverConfig driver;
    driver.queries = config_.queries;
    driver.budget = config_.budget;
    driver.window = config_.window;
    driver.z = config_.z;
    driver.seed = config_.seed;
    // Only run() drives the driver, so on_window_ is set whenever it emits.
    driver_ = std::make_unique<PipelineDriver>(
        std::move(driver),
        [this](const WindowOutput& output) {
          if (*on_window_) (*on_window_)(output);
        },
        std::max<std::size_t>(1, config_.workers));
  }
  return *driver_;
}

std::shared_ptr<QuerySubscription> StreamApprox::attach_query(
    std::unique_ptr<QuerySink> sink, std::size_t subscription_capacity) {
  std::lock_guard lock(control_mutex_);
  return driver_locked().attach_query(std::move(sink), subscription_capacity);
}

bool StreamApprox::detach_query(const std::string& name) {
  std::lock_guard lock(control_mutex_);
  return driver_locked().detach_query(name);
}

std::size_t StreamApprox::query_count() const {
  std::lock_guard lock(control_mutex_);
  return driver_ ? driver_->query_count() : config_.queries.size();
}

void StreamApprox::run(
    const std::function<void(const WindowOutput&)>& on_window) {
  // The exchange decouples workers from partitions, so any workers > 1
  // shards, whatever the topic's partition count.
  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  run_stats_ = ShardedRunStats{};
  run_stats_.workers = workers;
  run_stats_.per_worker_records.assign(workers, 0);

  on_window_ = &on_window;
  // However run() exits, it drops its driver: the driver's destructor
  // closes the run's channels and any attach it never applied, and the
  // next attach or run builds a fresh one from the config.
  class DriverReset {
   public:
    explicit DriverReset(StreamApprox& system) : system_(system) {}
    DriverReset(const DriverReset&) = delete;
    DriverReset& operator=(const DriverReset&) = delete;
    ~DriverReset() {
      std::unique_ptr<PipelineDriver> done;
      {
        std::lock_guard lock(system_.control_mutex_);
        done = std::move(system_.driver_);
      }
      system_.on_window_ = nullptr;
    }

   private:
    StreamApprox& system_;
  } const reset(*this);
  PipelineDriver& driver = [this]() -> PipelineDriver& {
    std::lock_guard lock(control_mutex_);
    return driver_locked();
  }();

  ingest::ExchangeConfig exchange_config;
  exchange_config.workers = workers;
  exchange_config.batch_size =
      workers > 1 ? config_.exchange_batch_size : config_.poll_batch;
  exchange_config.idle_partition_timeout_ms =
      config_.idle_partition_timeout_ms;
  ingest::Exchange exchange(broker_, config_.topic, exchange_config);

  if (workers > 1) {
    run_sharded(driver, exchange);
  } else {
    // The one channel is drained on this thread: each batch is absorbed and
    // closed behind before the exchange polls its next round. The ingest
    // work feeds a volatile sink so the parse-work model cannot be
    // dead-code-eliminated.
    double ingest_acc = 0.0;
    exchange.run([&](ingest::Exchange::BatchPtr batch) {
      if (batch->heartbeat) {
        ++run_stats_.heartbeats_absorbed;
      } else {
        for (const auto& record : batch->records) {
          ingest_acc += config_.ingest_cost.charge(record.value);
        }
        driver.offer_batch(batch->records.data(), batch->size());
        ++run_stats_.batches_absorbed;
        run_stats_.records_absorbed += batch->size();
      }
      close_behind(driver, exchange, batch->watermark_us);
      exchange.recycle(std::move(batch));
    });
    volatile double ingest_sink = ingest_acc;
    (void)ingest_sink;
    run_stats_.owner_pops = run_stats_.batches_absorbed;
    run_stats_.per_worker_records[0] = run_stats_.records_absorbed;
  }

  // The exchange's last watermark, kWatermarkFlush, has closed every slide
  // on both paths. Its routing counters are plain fields of the thread that
  // ran it, final once run() returned or the pool joined.
  const ingest::ExchangeStats& routing = exchange.stats();
  run_stats_.exchange_rounds = routing.rounds;
  run_stats_.exchange_records_routed = routing.records;
  run_stats_.exchange_runs_walked = routing.runs;
  run_stats_.exchange_table_probes = routing.table_probes;
  run_stats_.exchange_scatter_reserves = routing.scatter_reserves;
  const sampling::OasrsKernelStats& kernel = driver.kernel_stats();
  run_stats_.sampler_bulk_runs = kernel.bulk_runs;
  run_stats_.sampler_accepts = kernel.accepted;
  run_stats_.sampler_skipped = kernel.skipped;
}

std::size_t StreamApprox::close_behind(PipelineDriver& driver,
                                       const ingest::Exchange& exchange,
                                       std::int64_t watermark) {
  const std::size_t closed = driver.advance(watermark);
  if (closed == 0) return 0;
  // Watermark lag: how far ingest had run ahead of each close.
  const std::int64_t max_event = exchange.max_routed_event_us();
  if (max_event != engine::kNoWatermark) {
    const std::int64_t next = *driver.next_to_close();
    for (auto slide = next - static_cast<std::int64_t>(closed); slide < next;
         ++slide) {
      run_stats_.watermark_lag_us.push_back(
          max_event - (slide + 1) * config_.window.slide_us);
    }
  }
  return closed;
}

}  // namespace streamapprox::core
