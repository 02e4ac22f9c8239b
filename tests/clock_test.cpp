// Tests for timing utilities: stopwatch and token bucket.
#include "common/clock.h"

#include <gtest/gtest.h>

#include <thread>

namespace streamapprox {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.millis(), 18.0);
  EXPECT_LT(watch.seconds(), 2.0);
}

TEST(Stopwatch, RestartResets) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.restart();
  EXPECT_LT(watch.millis(), 15.0);
}

TEST(Stopwatch, UnitsAreConsistent) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double s = watch.seconds();
  const double ms = watch.millis();
  EXPECT_NEAR(ms, s * 1e3, s * 1e3 * 0.5);
}

TEST(TokenBucket, PacesToApproximateRate) {
  // 1000 tokens/s with a 10-token burst: draining 50 tokens must take at
  // least ~40 ms (first 10 free).
  TokenBucket bucket(1000.0, 10.0);
  Stopwatch watch;
  for (int i = 0; i < 50; ++i) bucket.acquire();
  EXPECT_GE(watch.millis(), 30.0);
  EXPECT_LT(watch.millis(), 500.0);
}

TEST(TokenBucket, BurstPassesImmediately) {
  TokenBucket bucket(10.0, 100.0);
  Stopwatch watch;
  for (int i = 0; i < 100; ++i) bucket.acquire();
  EXPECT_LT(watch.millis(), 50.0);
}

TEST(TokenBucket, FractionalAcquire) {
  // A 1-token burst holds two half-token acquires at once; the third waits
  // for half a token to refill at 2 tokens/s, about 250 ms.
  TokenBucket bucket(2.0, 1.0);
  Stopwatch watch;
  bucket.acquire(0.5);
  bucket.acquire(0.5);
  EXPECT_LT(watch.millis(), 150.0);
  bucket.acquire(0.5);
  EXPECT_GE(watch.millis(), 225.0);
  EXPECT_LT(watch.seconds(), 2.0);
}

}  // namespace
}  // namespace streamapprox
