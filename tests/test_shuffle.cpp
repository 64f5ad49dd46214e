// ShuffleQueue: batching by size S, timer-driven flush, permutation output.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <span>
#include <thread>

#include "pprox/shuffle.hpp"

namespace pprox {
namespace {

using namespace std::chrono_literals;

using Action = std::function<void()>;

// Sink that runs each released action on the flushing thread.
void run_actions(std::span<Action> batch, const FlushInfo&) {
  for (Action& action : batch) action();
}

TEST(ShuffleQueue, PassThroughWhenDisabled) {
  ShuffleQueue<Action> q(0, 100ms, run_actions);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.add([&order, i] { order.push_back(i); });
    EXPECT_EQ(q.buffered(), 0u);  // released synchronously
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShuffleQueue, BuffersUntilSizeReached) {
  ShuffleQueue<Action> q(5, 10s, run_actions);  // timer effectively disabled
  std::atomic<int> released{0};
  for (int i = 0; i < 4; ++i) q.add([&released] { released.fetch_add(1); });
  EXPECT_EQ(released.load(), 0);
  EXPECT_EQ(q.buffered(), 4u);
  q.add([&released] { released.fetch_add(1); });  // 5th triggers flush
  EXPECT_EQ(released.load(), 5);
  EXPECT_EQ(q.buffered(), 0u);
  EXPECT_EQ(q.flush_count(), 1u);
}

TEST(ShuffleQueue, EveryActionRunsExactlyOnce) {
  ShuffleQueue<Action> q(10, 10s, run_actions);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100; ++i) {
    q.add([&counts, i] { counts[static_cast<std::size_t>(i)]++; });
  }
  for (int count : counts) EXPECT_EQ(count, 1);
  EXPECT_EQ(q.flush_count(), 10u);
}

TEST(ShuffleQueue, OutputOrderIsShuffled) {
  // With S=32, the probability that a batch stays in arrival order is
  // 1/32! — seeing any permutation move is the expectation.
  ShuffleQueue<Action> q(32, 10s, run_actions);
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) q.add([&order, i] { order.push_back(i); });
  std::vector<int> sorted(32);
  std::iota(sorted.begin(), sorted.end(), 0);
  EXPECT_TRUE(std::is_permutation(order.begin(), order.end(), sorted.begin()));
  EXPECT_NE(order, sorted);
}

TEST(ShuffleQueue, TimerFlushesPartialBatch) {
  ShuffleQueue<Action> q(100, 50ms, run_actions);
  std::atomic<int> released{0};
  q.add([&released] { released.fetch_add(1); });
  q.add([&released] { released.fetch_add(1); });
  EXPECT_EQ(released.load(), 0);
  // Wait well past the timeout.
  for (int i = 0; i < 100 && released.load() < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(released.load(), 2);
}

TEST(ShuffleQueue, TimerRearmsAfterFlush) {
  ShuffleQueue<Action> q(100, 40ms, run_actions);
  std::atomic<int> released{0};
  q.add([&released] { released.fetch_add(1); });
  for (int i = 0; i < 100 && released.load() < 1; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(released.load(), 1);
  // A second wave must get its own deadline.
  q.add([&released] { released.fetch_add(1); });
  for (int i = 0; i < 100 && released.load() < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(released.load(), 2);
}

TEST(ShuffleQueue, SizeFlushCancelsPendingTimer) {
  ShuffleQueue<Action> q(2, 80ms, run_actions);
  std::atomic<int> released{0};
  q.add([&released] { released.fetch_add(1); });
  q.add([&released] { released.fetch_add(1); });  // size flush before timer
  EXPECT_EQ(released.load(), 2);
  const auto flushes_before = q.flush_count();
  std::this_thread::sleep_for(120ms);  // stale timer must not re-fire
  EXPECT_EQ(q.flush_count(), flushes_before);
}

TEST(ShuffleQueue, FlushNowReleasesEverything) {
  ShuffleQueue<Action> q(100, 10s, run_actions);
  std::atomic<int> released{0};
  for (int i = 0; i < 7; ++i) q.add([&released] { released.fetch_add(1); });
  q.flush_now();
  EXPECT_EQ(released.load(), 7);
}

TEST(ShuffleQueue, DestructorDoesNotStrandActions) {
  std::atomic<int> released{0};
  {
    ShuffleQueue<Action> q(100, 10s, run_actions);
    for (int i = 0; i < 3; ++i) q.add([&released] { released.fetch_add(1); });
  }
  EXPECT_EQ(released.load(), 3);
}

TEST(ShuffleQueue, ConcurrentProducers) {
  ShuffleQueue<Action> q(16, 100ms, run_actions);
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&q, &released] {
      for (int i = 0; i < 250; ++i) q.add([&released] { released.fetch_add(1); });
    });
  }
  for (auto& t : threads) t.join();
  q.flush_now();
  // Some releases may still be mid-run on other threads; wait briefly.
  for (int i = 0; i < 200 && released.load() < 1000; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(released.load(), 1000);
}

}  // namespace
}  // namespace pprox
