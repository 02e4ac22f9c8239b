// Inter-thread hand-off structures with lock-free fast paths.
//
//  * SpscRing<T>      — single-producer single-consumer ring: the
//    exchange's per-worker channels, the pipelined engine's
//    operator-to-operator channels and the per-query subscription channels.
//  * StealDeque<T>    — bounded Chase-Lev-style work-stealing deque: one
//    owner pushes/pops LIFO at the bottom, any number of thieves steal FIFO
//    from the top. The morsel scheduler's per-worker run queue.
//
// Together they are the sharded scheduler's only hand-off structures: the
// exchange feeds each worker through one SpscRing, and the worker refills
// its StealDeque from it.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

// TSan does not model standalone atomic fences (gcc's -Wtsan); under TSan
// the Dekker barrier below uses a seq_cst RMW instead — same StoreLoad
// ordering, visible to the race detector.
#if defined(__SANITIZE_THREAD__)
#define STREAMAPPROX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STREAMAPPROX_TSAN 1
#endif
#endif

namespace streamapprox {
namespace detail {

/// The StoreLoad barrier of the lock-free handshakes below. TSan does not
/// model standalone fences, so sanitized builds substitute a seq_cst RMW on
/// a per-structure word — the same ordering, visible to the race detector.
class StoreLoadBarrier {
 public:
  void operator()() noexcept {
#ifdef STREAMAPPROX_TSAN
    word_.fetch_add(1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

 private:
#ifdef STREAMAPPROX_TSAN
  std::atomic<unsigned> word_{0};
#endif
};

}  // namespace detail

/// Lock-free single-producer single-consumer ring buffer.
///
/// Capacity is rounded up to a power of two. One slot is kept empty to
/// distinguish full from empty, so the usable capacity is capacity-1.
/// Producer calls try_push/push/close, consumer calls try_pop/drained; no
/// other thread may touch either end.
///
/// Backpressure: push() blocks on a condition variable while the ring is
/// full, so a producer ahead of its consumer parks instead of spinning. The
/// mutex/condvar are touched ONLY on the full-ring slow path; the pop fast
/// path stays lock-free but pays one seq_cst fence plus a relaxed flag load
/// per successful pop (a full barrier on x86 — cheap at this ring's
/// batch-per-element granularity). The fences form the classic Dekker
/// handshake: either the producer's post-flag retry sees the freed slot, or
/// the consumer's post-pop check sees the waiting flag and notifies — a
/// wakeup cannot be lost.
template <typename T>
class SpscRing {
 public:
  /// Creates a ring able to buffer at least `min_capacity` elements.
  explicit SpscRing(std::size_t min_capacity = 1024)
      : buffer_(round_up(min_capacity + 1)), mask_(buffer_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side: enqueues unless the ring is full. Returns false when
  /// full — and, being pass-by-value, destroys the element with it. Callers
  /// that retry on a full ring must use try_push_keep.
  bool try_push(T value) { return try_push_keep(value); }

  /// Retry-friendly producer side: moves `value` into the ring only on
  /// success; when the ring is full, returns false with `value` untouched so
  /// the caller can back off and retry without losing it.
  bool try_push_keep(T& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;
    buffer_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Blocking producer side: parks on a condition variable while the ring
  /// is full (no spinning), moving `value` in once a slot frees. Returns
  /// false — with `value` intact — only if the ring was closed while
  /// waiting (an aborting peer may close to release a blocked producer).
  bool push(T& value) {
    if (try_push_keep(value)) return true;
    std::unique_lock lock(wait_mutex_);
    for (;;) {
      producer_waiting_.store(true, std::memory_order_relaxed);
      // Barrier A of the Dekker pair: orders the flag store before the
      // retry's tail load against the consumer's tail store / flag load
      // (barrier B).
      barrier_();
      const bool pushed = try_push_keep(value);
      if (pushed || closed_.load(std::memory_order_acquire)) {
        producer_waiting_.store(false, std::memory_order_relaxed);
        return pushed;
      }
      not_full_.wait(lock);
    }
  }

  /// Convenience blocking push by value; the element is lost only when the
  /// ring was closed (return false).
  bool push(T&& value) {
    T moved = std::move(value);
    return push(moved);
  }

  /// Consumer side: dequeues if an element is available.
  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;
    T value = std::move(buffer_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    notify_producer_after_pop();
    return value;
  }

  /// Batch-drain consumer side: appends up to `max` buffered elements to
  /// `out` (which keeps its existing contents) under ONE synchronisation —
  /// one tail publish, one barrier, at most one wakeup — instead of paying
  /// them per element. Returns the number of elements moved. This is the
  /// consumer-side mirror of the batch-out fill pattern on Consumer::poll.
  std::size_t pop_n(std::vector<T>& out, std::size_t max) {
    if (max == 0) return 0;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t available = (head - tail) & mask_;
    const std::size_t take = std::min(available, max);
    if (take == 0) return 0;
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(buffer_[(tail + i) & mask_]));
    }
    tail_.store((tail + take) & mask_, std::memory_order_release);
    notify_producer_after_pop();
    return take;
  }

  /// Producer signals end-of-stream. Any peer may also close to release a
  /// producer blocked in push().
  void close() {
    closed_.store(true, std::memory_order_release);
    { std::lock_guard lock(wait_mutex_); }
    not_full_.notify_all();
  }

  /// True when the producer closed the ring AND all elements were consumed.
  bool drained() const {
    return closed_.load(std::memory_order_acquire) &&
           tail_.load(std::memory_order_acquire) ==
               head_.load(std::memory_order_acquire);
  }

  /// True once close() has been called (elements may remain).
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Number of buffered elements (approximate under concurrency).
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

 private:
  static std::size_t round_up(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  /// Barrier B of the Dekker pair: the consumer's tail store is ordered
  /// before the flag check, so a producer that missed this pop must be seen
  /// waiting here (and then the empty lock section serialises with it being
  /// inside wait()) — a wakeup cannot be lost.
  void notify_producer_after_pop() {
    barrier_();
    if (producer_waiting_.load(std::memory_order_relaxed)) {
      { std::lock_guard lock(wait_mutex_); }
      not_full_.notify_one();
    }
  }

  std::vector<T> buffer_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::atomic<bool> closed_{false};
  /// Blocking-push slow path only; untouched while the ring has room.
  std::atomic<bool> producer_waiting_{false};
  detail::StoreLoadBarrier barrier_;
  std::mutex wait_mutex_;
  std::condition_variable not_full_;
};

/// Bounded Chase-Lev-style work-stealing deque (Lê et al., "Correct and
/// Efficient Work-Stealing for Weak Memory Models", PPoPP'13 — the bounded
/// array variant, without growth).
///
/// Roles: exactly ONE owner thread calls push_bottom()/pop_bottom(); any
/// number of thief threads call steal_top(). The owner works LIFO off the
/// bottom (cache-warm, most recently deposited morsel first); thieves take
/// FIFO off the top (the oldest morsel, the one the owner is furthest from
/// reaching). All slot accesses are relaxed atomics, so the element type T
/// must be trivially copyable and lock-free-atomic-sized — in practice a
/// raw pointer; ownership handoff lives outside the deque.
///
/// push_bottom returns false when full (the caller processes the element in
/// place). pop_bottom/steal_top return std::nullopt when empty — and
/// steal_top also on losing a CAS race, so thieves simply move to the next
/// victim rather than spin.
template <typename T>
class StealDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "StealDeque slots are relaxed atomics; T must be trivially "
                "copyable (use a raw pointer and hand off ownership outside)");

 public:
  /// Creates a deque holding at least `min_capacity` elements.
  explicit StealDeque(std::size_t min_capacity = 64)
      : slots_(round_up(std::max<std::size_t>(1, min_capacity))),
        mask_(slots_.size() - 1) {}

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner only: deposits at the bottom. Returns false when full.
  bool push_bottom(T value) {
    const std::int64_t bottom = bottom_.load(std::memory_order_relaxed);
    const std::int64_t top = top_.load(std::memory_order_acquire);
    if (bottom - top >= static_cast<std::int64_t>(slots_.size())) return false;
    slots_[static_cast<std::size_t>(bottom) & mask_].store(
        value, std::memory_order_relaxed);
    bottom_.store(bottom + 1, std::memory_order_release);
    return true;
  }

  /// Owner only: takes the most recently pushed element (LIFO). The
  /// transient bottom decrement plus the StoreLoad barrier is what makes the
  /// race for the LAST element safe: either this owner or a thief wins the
  /// seq_cst CAS on top, never both.
  std::optional<T> pop_bottom() {
    const std::int64_t bottom = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(bottom, std::memory_order_relaxed);
    barrier_();
    std::int64_t top = top_.load(std::memory_order_relaxed);
    if (top <= bottom) {
      T value =
          slots_[static_cast<std::size_t>(bottom) & mask_].load(
              std::memory_order_relaxed);
      if (top == bottom) {
        // Exactly one element left: race the thieves for it.
        const bool won = top_.compare_exchange_strong(
            top, top + 1, std::memory_order_seq_cst,
            std::memory_order_relaxed);
        bottom_.store(bottom + 1, std::memory_order_relaxed);
        if (!won) return std::nullopt;  // a thief got there first
      }
      return value;
    }
    bottom_.store(bottom + 1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Any thread: takes the OLDEST element (FIFO). std::nullopt when empty or
  /// on losing the race to another thief/the owner.
  std::optional<T> steal_top() {
    std::int64_t top = top_.load(std::memory_order_acquire);
    barrier_();
    const std::int64_t bottom = bottom_.load(std::memory_order_acquire);
    if (top >= bottom) return std::nullopt;
    T value = slots_[static_cast<std::size_t>(top) & mask_].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(top, top + 1,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return std::nullopt;
    }
    return value;
  }

  /// Buffered element count (approximate under concurrency; exact when
  /// called by the owner with no thieves active).
  std::size_t size() const {
    const std::int64_t bottom = bottom_.load(std::memory_order_acquire);
    const std::int64_t top = top_.load(std::memory_order_acquire);
    return bottom > top ? static_cast<std::size_t>(bottom - top) : 0;
  }

  /// True when no element is buffered (approximate under concurrency).
  bool empty() const { return size() == 0; }

  /// Slot capacity (power of two).
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static std::size_t round_up(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<std::atomic<T>> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  mutable detail::StoreLoadBarrier barrier_;
};

}  // namespace streamapprox
