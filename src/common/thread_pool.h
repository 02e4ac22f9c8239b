// Fixed-size worker pool used by the batched engine's stage scheduler.
//
// Semantics mirror what the micro-batch model needs: submit() enqueues an
// arbitrary task; parallel_slices() splits an index range across the workers
// and BLOCKS until every slice completed — this barrier is precisely the
// per-stage synchronisation of a Spark job, and is what makes shuffle-heavy
// operations (Spark STS's groupBy) expensive in our reproduction, as in the
// paper.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace streamapprox {

/// Names the calling thread for debuggers, TSan reports, and `perf`
/// (pthread_setname_np where available, truncated to the kernel's 15-char
/// limit; a silent no-op elsewhere). Call first thing inside the thread.
void set_current_thread_name(const char* name);

/// A joinable fixed-size thread pool.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1; 0 means hardware_concurrency).
  /// Workers are named "<name_prefix>-<i>" when a prefix is given.
  explicit ThreadPool(std::size_t threads = 0,
                      const char* name_prefix = nullptr);

  /// Stops accepting work, drains the queue, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Runs fn(slice_index, begin, end) for `slices` contiguous sub-ranges of
  /// [0, count) and waits for all of them to finish (stage barrier). One
  /// task per slice keeps per-task overhead negligible, and the callee can
  /// keep one context object per slice (e.g. per-partition samplers).
  void parallel_slices(
      std::size_t count, std::size_t slices,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace streamapprox
