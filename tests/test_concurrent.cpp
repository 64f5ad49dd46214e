// Lock-free queue and thread pool: correctness under single-threaded edge
// cases and no-loss/no-duplication properties under multi-threaded stress.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.hpp"
#include "concurrent/thread_pool.hpp"

namespace pprox::concurrent {
namespace {

TEST(MpmcQueue, CapacityRoundsToPowerOfTwo) {
  MpmcQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  MpmcQueue<int> q2(64);
  EXPECT_EQ(q2.capacity(), 64u);
  MpmcQueue<int> q3(1);
  EXPECT_EQ(q3.capacity(), 2u);
}

TEST(MpmcQueue, FifoSingleThreaded) {
  MpmcQueue<int> q(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 10; ++i) {
    const auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, FullRejectsPush) {
  MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  EXPECT_EQ(q.try_pop().value(), 0);
  EXPECT_TRUE(q.try_push(99));  // slot freed
}

TEST(MpmcQueue, WrapsAroundManyTimes) {
  MpmcQueue<int> q(4);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(q.try_push(round));
    ASSERT_EQ(q.try_pop().value(), round);
  }
}

TEST(MpmcQueue, MoveOnlyPayload) {
  MpmcQueue<std::unique_ptr<int>> q(8);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(7)));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

struct StressParams {
  int producers;
  int consumers;
};

class MpmcStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(MpmcStress, NoLossNoDuplication) {
  const auto [producers, consumers] = GetParam();
  constexpr int kPerProducer = 20000;
  MpmcQueue<std::uint64_t> q(1024);
  std::atomic<int> producers_done{0};
  std::vector<std::thread> threads;

  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&q, &producers_done, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value =
            (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(i);
        while (!q.try_push(value)) std::this_thread::yield();
      }
      producers_done.fetch_add(1);
    });
  }

  std::mutex sink_mutex;
  std::vector<std::uint64_t> sink;
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::vector<std::uint64_t> local;
      while (true) {
        const auto v = q.try_pop();
        if (v.has_value()) {
          local.push_back(*v);
        } else if (producers_done.load() == producers) {
          // Queue may still have items racing in; one final sweep.
          while (const auto last = q.try_pop()) local.push_back(*last);
          break;
        } else {
          std::this_thread::yield();
        }
      }
      std::lock_guard<std::mutex> lock(sink_mutex);
      sink.insert(sink.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(sink.size(), static_cast<std::size_t>(producers) * kPerProducer);
  std::sort(sink.begin(), sink.end());
  EXPECT_EQ(std::adjacent_find(sink.begin(), sink.end()), sink.end())
      << "duplicate element consumed";
  // Per-producer FIFO completeness: every (p, i) present exactly once.
  std::map<int, int> counts;
  for (const std::uint64_t v : sink) counts[static_cast<int>(v >> 32)]++;
  for (int p = 0; p < producers; ++p) EXPECT_EQ(counts[p], kPerProducer);
}

INSTANTIATE_TEST_SUITE_P(Topologies, MpmcStress,
                         ::testing::Values(StressParams{1, 1}, StressParams{2, 2},
                                           StressParams{4, 1}, StressParams{1, 4},
                                           StressParams{4, 4}));

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  pool.drain();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, DrainWaitsForSlowTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  // The gate holds all four tasks in flight until just before drain(), so
  // drain() provably observes unfinished work — the old 20ms sleeps only
  // made that likely, and wasted 40ms of wall clock doing it.
  std::latch gate(1);
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] {
      gate.wait();
      done.fetch_add(1);
    });
  }
  gate.count_down();
  pool.drain();
  EXPECT_EQ(done.load(), 4);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.drain();
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  // Two tasks rendezvous on a barrier: arrive_and_wait() can only return
  // when both tasks are in flight at once, so completing the rendezvous IS
  // the overlap proof. (The old version inferred overlap from 30ms sleeps
  // lining up — slow, and false-negative under an unlucky scheduler.)
  std::barrier rendezvous(2);
  std::atomic<int> overlapped{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      rendezvous.arrive_and_wait();
      overlapped.fetch_add(1);
    });
  }
  pool.drain();
  EXPECT_EQ(overlapped.load(), 2);
}

TEST(ThreadPool, SubmitFromWorkerThread) {
  ThreadPool pool(2, 64);
  std::atomic<int> counter{0};
  std::latch inner_submitted(1);
  pool.submit([&] {
    counter.fetch_add(1);
    pool.submit([&] { counter.fetch_add(1); });
    inner_submitted.count_down();
  });
  inner_submitted.wait();  // drain() may not see the inner task before this
  pool.drain();
  EXPECT_EQ(counter.load(), 2);
}

// Runs a fan-out over n indices and returns how often each index ran.
std::vector<int> run_counts(const FanOut& fan_out, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  fan_out.for_each_index(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  std::vector<int> counts;
  for (const auto& hit : hits) counts.push_back(hit.load());
  return counts;
}

TEST(FanOut, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 2u, 10u, 4096u}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(run_counts(FanOut(pool), n), std::vector<int>(n, 1));
    EXPECT_EQ(run_counts(FanOut(), n), std::vector<int>(n, 1));
  }
  pool.drain();
}

TEST(FanOut, SequentialRunnerKeepsIndexOrder) {
  std::vector<std::size_t> order;
  FanOut().for_each_index(5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// Every index ran on the calling thread.
bool all_on_caller(ThreadPool& pool, std::size_t n) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  FanOut(pool).for_each_index(n, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  return elsewhere.load() == 0;
}

TEST(FanOut, OneThreadPoolRunsEverythingOnTheCaller) {
  // worker_threads = 1 means zero helpers: today's serial path exactly.
  ThreadPool pool(1);
  EXPECT_TRUE(all_on_caller(pool, 64));
  pool.drain();
}

TEST(FanOut, ShutDownPoolRunsEverythingOnTheCaller) {
  ThreadPool pool(4);
  pool.shutdown();
  EXPECT_TRUE(all_on_caller(pool, 64));
}

TEST(FanOut, EveryWorkerFanningOutAtOnceCompletes) {
  // Both workers fan out from inside pool tasks at the same moment, so each
  // one's helper can only run once the other worker is free. The caller
  // waits only for claimed indices, so neither waits on the other's queued
  // helper: both calls complete.
  ThreadPool pool(2);
  std::barrier both_in_flight(2);
  std::vector<std::promise<std::vector<int>>> results(2);
  std::vector<std::future<std::vector<int>>> futures;
  for (auto& result : results) futures.push_back(result.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.submit([&, w] {
      both_in_flight.arrive_and_wait();
      results[w].set_value(run_counts(FanOut(pool), 10));
    });
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "fan-out from every worker at once deadlocked";
    EXPECT_EQ(future.get(), std::vector<int>(10, 1));
  }
  pool.drain();
}

TEST(FanOut, LateHelperTouchesNothingOfTheReturnedCall) {
  // Park both workers so the fan-out's helper sits in the queue; the caller
  // then claims every index itself and returns, and its body and state die.
  // The helper starts afterwards, finds no index to claim and touches only
  // the job it co-owns (ASan reports any access to the freed state).
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::latch parked(2);
  for (int w = 0; w < 2; ++w) {
    pool.submit([&parked, opened] {
      parked.count_down();
      opened.wait();
    });
  }
  parked.wait();
  {
    auto hits = std::make_unique<std::vector<std::atomic<int>>>(16);
    FanOut(pool).for_each_index(
        16, [&hits](std::size_t i) { (*hits)[i].fetch_add(1); });
    for (const auto& hit : *hits) EXPECT_EQ(hit.load(), 1);
  }  // body state freed while the helper is still queued
  gate.set_value();
  pool.drain();
}

}  // namespace
}  // namespace pprox::concurrent
