#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace streamapprox {

void set_current_thread_name(const char* name) {
  if (name == nullptr || *name == '\0') return;
#if defined(__linux__)
  // The kernel caps thread names at 16 bytes including the terminator;
  // longer names make pthread_setname_np fail outright, so truncate.
  char buf[16];
  const std::size_t length = std::min(std::strlen(name), sizeof(buf) - 1);
  std::memcpy(buf, name, length);
  buf[length] = '\0';
  pthread_setname_np(pthread_self(), buf);
#endif
}

ThreadPool::ThreadPool(std::size_t threads, const char* name_prefix) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::string prefix = name_prefix ? name_prefix : "";
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, prefix, i] {
      if (!prefix.empty()) {
        set_current_thread_name((prefix + "-" + std::to_string(i)).c_str());
      }
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_slices(
    std::size_t count, std::size_t slices,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  slices = std::max<std::size_t>(1, std::min(slices, count));
  if (slices == 1) {
    fn(0, 0, count);
    return;
  }
  const std::size_t chunk = (count + slices - 1) / slices;
  std::atomic<std::size_t> pending{slices};
  std::promise<void> done;
  auto future = done.get_future();
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    submit([&, s, begin, end] {
      fn(s, begin, end);
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        done.set_value();
      }
    });
  }
  future.wait();
}

}  // namespace streamapprox
