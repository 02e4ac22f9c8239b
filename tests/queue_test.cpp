// Concurrency tests for SpscRing and StealDeque.
#include "common/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace streamapprox {
namespace {

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.try_pop().value(), i);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> ring(2);  // rounds up to 4 slots => 3 usable
  int pushed = 0;
  while (ring.try_push(pushed)) ++pushed;
  EXPECT_GE(pushed, 2);
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(99));
}

TEST(SpscRing, TryPushKeepRetainsValueWhenFull) {
  SpscRing<std::unique_ptr<int>> ring(2);
  while (true) {
    auto value = std::make_unique<int>(1);
    if (!ring.try_push_keep(value)) {
      // Full: the value must survive for a retry.
      ASSERT_NE(value, nullptr);
      ring.try_pop();
      EXPECT_TRUE(ring.try_push_keep(value));
      EXPECT_EQ(value, nullptr);  // consumed on success
      break;
    }
    EXPECT_EQ(value, nullptr);
  }
}

TEST(SpscRing, BlockedPushWakesOnPop) {
  // The condvar-backed backpressure path: a producer blocked on a full ring
  // must park (no result yet), then complete as soon as the consumer pops.
  SpscRing<int> ring(2);
  int fill = 0;
  while (ring.try_push(fill)) ++fill;  // ring now full

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ring.push(99));
    pushed.store(true);
  });
  // The push must stay blocked while the ring remains full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());

  ASSERT_TRUE(ring.try_pop().has_value());
  producer.join();
  EXPECT_TRUE(pushed.load());
  // Everything pushed (including the blocked element) pops in FIFO order.
  std::vector<int> rest;
  while (auto v = ring.try_pop()) rest.push_back(*v);
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(rest.back(), 99);
}

TEST(SpscRing, BlockedPushStreamLosesNothing) {
  // A fast producer using blocking push against a slow consumer: every
  // element arrives exactly once, in order, with no spinning.
  constexpr int kCount = 20000;
  SpscRing<int> ring(8);
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) ASSERT_TRUE(ring.push(i));
    ring.close();
  });
  int expected = 0;
  while (true) {
    if (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, expected++);
    } else if (ring.drained()) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

TEST(SpscRing, CloseReleasesBlockedPush) {
  SpscRing<std::unique_ptr<int>> ring(2);
  while (true) {
    auto value = std::make_unique<int>(1);
    if (!ring.try_push_keep(value)) break;
  }
  std::atomic<bool> released{false};
  std::thread producer([&] {
    auto value = std::make_unique<int>(2);
    // Closed while full: push returns false and keeps the value.
    EXPECT_FALSE(ring.push(value));
    EXPECT_NE(value, nullptr);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  ring.close();
  producer.join();
  EXPECT_TRUE(released.load());
}

TEST(SpscRing, DrainedSemantics) {
  SpscRing<int> ring(4);
  ring.try_push(1);
  EXPECT_FALSE(ring.drained());
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.drained());  // element remains
  ring.try_pop();
  EXPECT_TRUE(ring.drained());
}

TEST(SpscRing, PopNDrainsInFifoOrder) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(ring.pop_n(out, 4), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  // Appends to the same vector; asks for more than remains.
  EXPECT_EQ(ring.pop_n(out, 100), 6u);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(ring.pop_n(out, 4), 0u);
  EXPECT_EQ(out.size(), 10u);
}

TEST(SpscRing, PopNWakesBlockedProducer) {
  // The batch drain must hit the same producer-wakeup path as try_pop: a
  // producer parked on a full ring resumes once pop_n frees slots.
  SpscRing<int> ring(2);
  int fill = 0;
  while (ring.try_push(fill)) ++fill;

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ring.push(99));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());

  std::vector<int> out;
  ASSERT_GT(ring.pop_n(out, 64), 0u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  while (ring.pop_n(out, 64) > 0) {
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), 99);
}

TEST(StealDeque, OwnerPopsLifo) {
  StealDeque<int> deque(8);
  EXPECT_TRUE(deque.empty());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(deque.push_bottom(i));
  EXPECT_EQ(deque.size(), 5u);
  for (int i = 4; i >= 0; --i) EXPECT_EQ(deque.pop_bottom().value(), i);
  EXPECT_FALSE(deque.pop_bottom().has_value());
  EXPECT_TRUE(deque.empty());
}

TEST(StealDeque, ThiefStealsFifo) {
  StealDeque<int> deque(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(deque.push_bottom(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(deque.steal_top().value(), i);
  EXPECT_FALSE(deque.steal_top().has_value());
}

TEST(StealDeque, FullRejectsPushUntilDrained) {
  StealDeque<int> deque(4);
  int pushed = 0;
  while (deque.push_bottom(pushed)) ++pushed;
  EXPECT_EQ(pushed, 4);
  EXPECT_EQ(deque.size(), deque.capacity());
  // Either end freeing a slot re-enables the owner's push.
  EXPECT_EQ(deque.steal_top().value(), 0);
  EXPECT_TRUE(deque.push_bottom(4));
  EXPECT_FALSE(deque.push_bottom(5));
  EXPECT_EQ(deque.pop_bottom().value(), 4);
  EXPECT_TRUE(deque.push_bottom(5));
}

TEST(StealDeque, InterleavedOwnerAndThiefSingleThread) {
  // The ring indexing must survive top/bottom lapping the capacity many
  // times over.
  StealDeque<int> deque(4);
  int next = 0;
  long long sum = 0;
  int taken = 0;
  for (int round = 0; round < 1000; ++round) {
    while (deque.push_bottom(next)) ++next;
    if (auto v = deque.steal_top()) {
      sum += *v;
      ++taken;
    }
    if (auto v = deque.pop_bottom()) {
      sum += *v;
      ++taken;
    }
  }
  while (auto v = deque.pop_bottom()) {
    sum += *v;
    ++taken;
  }
  EXPECT_EQ(taken, next);
  EXPECT_EQ(sum, static_cast<long long>(next) * (next - 1) / 2);
}

TEST(StealDeque, OwnerThiefRaceLosesNothing) {
  // The Chase-Lev owner/thief race, TSan-exercised: one owner pushing and
  // popping its own bottom while three thieves hammer the top. Every element
  // must be taken exactly once — the last-element CAS race decides WHO gets
  // an element, never whether it is lost or duplicated.
  constexpr int kCount = 100000;
  constexpr int kThieves = 3;
  StealDeque<int> deque(64);
  std::atomic<long long> sum{0};
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = deque.steal_top()) {
          sum += *v;
          ++taken;
        }
      }
      while (auto v = deque.steal_top()) {
        sum += *v;
        ++taken;
      }
    });
  }

  for (int i = 0; i < kCount; ++i) {
    while (!deque.push_bottom(i)) {
      if (auto v = deque.pop_bottom()) {
        sum += *v;
        ++taken;
      }
    }
    if ((i & 7) == 0) {
      if (auto v = deque.pop_bottom()) {
        sum += *v;
        ++taken;
      }
    }
  }
  // pop_bottom only returns empty when the deque IS empty or a thief won
  // the last element — either way nothing is left behind for the owner.
  while (auto v = deque.pop_bottom()) {
    sum += *v;
    ++taken;
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();

  EXPECT_EQ(taken.load(), kCount);
  EXPECT_EQ(sum.load(), static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(SpscRing, CrossThreadTransferPreservesAll) {
  constexpr int kCount = 200000;
  SpscRing<int> ring(1024);
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
    ring.close();
  });
  long long sum = 0;
  int received = 0;
  int last = -1;
  while (true) {
    if (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, last + 1);  // order preserved
      last = *v;
      sum += *v;
      ++received;
    } else if (ring.drained()) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

}  // namespace
}  // namespace streamapprox
