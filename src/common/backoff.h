// Bounded exponential idle backoff for polling loops: spin (cheapest, keeps
// the core's pipeline warm for an imminent wakeup), then yield (let a ready
// thread run), then sleep with a doubling, capped duration. A loop that
// pauses this way resumes in nanoseconds when work reappears immediately
// after a lull, yet converges to a bounded sleep — instead of either
// busy-burning a core or always paying a fixed worst-case doze (the
// exchange's old flat 200 µs sleep made every briefly-starved round as
// expensive as a deep idle one).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

namespace streamapprox {

/// Escalating pause for idle polling loops. Not thread-safe: one instance
/// per polling thread. Call pause() on every empty round, reset() whenever
/// the round found work.
class IdleBackoff {
 public:
  /// Empty rounds spent spinning (cpu-relax hint) before yielding.
  static constexpr std::uint32_t kSpins = 64;
  /// Empty rounds spent yielding before sleeping.
  static constexpr std::uint32_t kYields = 8;
  /// First sleep duration; doubles on each further sleeping pause.
  static constexpr std::uint32_t kMinSleepUs = 4;
  /// Sleep ceiling — the deepest-idle cost per pause.
  static constexpr std::uint32_t kMaxSleepUs = 256;

  /// Back to the spinning stage; the next sleep restarts at the floor.
  void reset() noexcept {
    round_ = 0;
    sleep_us_ = kMinSleepUs;
  }

  /// One escalation step: spin, then yield, then sleep (doubling, capped).
  void pause() {
    if (round_ < kSpins) {
      ++round_;
      cpu_relax();
      return;
    }
    if (round_ < kSpins + kYields) {
      ++round_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    sleep_us_ = std::min(kMaxSleepUs, sleep_us_ * 2);
  }

  /// Duration the next sleeping pause() would take; 0 while the backoff is
  /// still in its spin/yield stages. Introspection for tests and tuning.
  std::uint32_t next_sleep_us() const noexcept {
    return round_ < kSpins + kYields ? 0 : sleep_us_;
  }

 private:
  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
  }

  std::uint32_t round_ = 0;
  std::uint32_t sleep_us_ = kMinSleepUs;
};

}  // namespace streamapprox
