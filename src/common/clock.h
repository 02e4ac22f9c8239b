// Timing utilities: a wall-clock stopwatch, and a token bucket used by the
// replay tool for rate-controlled stream injection.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace streamapprox {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Restarts the measurement.
  void restart() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed time in seconds since construction/restart.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Elapsed time in milliseconds.
  double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Token bucket pacing events to a target rate; rate == 0 disables pacing
/// (saturation mode, used for the throughput experiments where input is fed
/// "until the system is saturated", §5.2).
class TokenBucket {
 public:
  /// Creates a bucket refilling at `rate_per_sec` tokens/s with up to
  /// `burst` accumulated tokens (defaults to one refill-second worth).
  explicit TokenBucket(double rate_per_sec, double burst = 0.0)
      : rate_(rate_per_sec),
        burst_(burst > 0.0 ? burst : rate_per_sec),
        tokens_(burst_),
        last_(std::chrono::steady_clock::now()) {}

  /// Acquires `n` tokens, sleeping as needed. No-op when rate == 0.
  void acquire(double n = 1.0) {
    if (rate_ <= 0.0) return;
    refill();
    while (tokens_ < n) {
      const double deficit = n - tokens_;
      const auto wait = std::chrono::duration<double>(deficit / rate_);
      std::this_thread::sleep_for(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait));
      refill();
    }
    tokens_ -= n;
  }

 private:
  void refill() {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  }

  double rate_;
  double burst_;
  double tokens_;
  std::chrono::steady_clock::time_point last_;
};

}  // namespace streamapprox
