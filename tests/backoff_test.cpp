// IdleBackoff: the exchange's idle pause — spin, then yield, then a capped
// doubling sleep. Stage transitions and the sleep schedule are asserted via
// next_sleep_us() so the tests are timing-free.
#include "common/backoff.h"

#include <gtest/gtest.h>

namespace streamapprox {
namespace {

constexpr std::uint32_t kWakeRounds =
    IdleBackoff::kSpins + IdleBackoff::kYields;

TEST(IdleBackoff, EscalatesSpinYieldThenCappedDoublingSleep) {
  IdleBackoff backoff;

  // Spin + yield stages: no sleeping yet.
  for (std::uint32_t i = 0; i < kWakeRounds; ++i) {
    EXPECT_EQ(backoff.next_sleep_us(), 0u) << "pause " << i;
    backoff.pause();
  }
  // Sleep stage: starts at the floor, doubles, saturates at the cap.
  for (std::uint32_t expected = IdleBackoff::kMinSleepUs;
       expected < IdleBackoff::kMaxSleepUs; expected *= 2) {
    EXPECT_EQ(backoff.next_sleep_us(), expected);
    backoff.pause();
  }
  EXPECT_EQ(backoff.next_sleep_us(), IdleBackoff::kMaxSleepUs);
  backoff.pause();
  EXPECT_EQ(backoff.next_sleep_us(), IdleBackoff::kMaxSleepUs)
      << "sleep must stay capped";
}

TEST(IdleBackoff, ResetReturnsToSpinStageAndSleepFloor) {
  IdleBackoff backoff;

  // Escalate all the way to the cap.
  while (backoff.next_sleep_us() < IdleBackoff::kMaxSleepUs) backoff.pause();

  // A round with data resets everything: spin again, and the next sleep
  // starts back at the floor instead of the cap.
  backoff.reset();
  EXPECT_EQ(backoff.next_sleep_us(), 0u);
  for (std::uint32_t i = 0; i < kWakeRounds; ++i) backoff.pause();
  EXPECT_EQ(backoff.next_sleep_us(), IdleBackoff::kMinSleepUs);
}

TEST(IdleBackoff, StartsNonSleeping) {
  IdleBackoff backoff;
  EXPECT_EQ(backoff.next_sleep_us(), 0u);
}

}  // namespace
}  // namespace streamapprox
