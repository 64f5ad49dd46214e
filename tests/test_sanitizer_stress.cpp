// Multi-threaded stress tests sized for ThreadSanitizer: enough contention
// to drive the CAS retry paths in MpmcQueue, the full/empty backpressure in
// ThreadPool, and concurrent add/flush/timer races in ShuffleQueue, while
// staying small enough that a TSan build finishes in seconds per case.
// These are the tests scripts/check.sh runs under -DPPROX_SANITIZE=thread;
// they also pass unsanitized as plain correctness checks.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.hpp"
#include "concurrent/thread_pool.hpp"
#include "net/channel.hpp"
#include "pprox/proxy.hpp"
#include "pprox/rotation.hpp"
#include "pprox/shuffle.hpp"
#include "pprox/tenancy.hpp"

namespace pprox {
namespace {

using Action = std::function<void()>;

// Sink that runs each released action on the flushing thread.
void run_actions(std::span<Action> batch, const FlushInfo&) {
  for (Action& action : batch) action();
}

// Tight queue: with capacity 64 and 4+4 threads every producer regularly
// hits the "full" path and every consumer the "empty" path, so the Vyukov
// sequence-number CAS loops are exercised from both sides concurrently.
TEST(SanitizerStress, MpmcQueueContendedPushPop) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  concurrent::MpmcQueue<std::uint64_t> queue(64);
  std::atomic<int> producers_done{0};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> sum{0};
  std::barrier start(kProducers + kConsumers);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      start.arrive_and_wait();
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value =
            static_cast<std::uint64_t>(p) * kPerProducer + i;
        while (!queue.try_push(value)) std::this_thread::yield();
      }
      producers_done.fetch_add(1);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (;;) {
        if (const auto v = queue.try_pop()) {
          popped.fetch_add(1);
          sum.fetch_add(*v);
        } else if (producers_done.load() == kProducers) {
          while (const auto last = queue.try_pop()) {
            popped.fetch_add(1);
            sum.fetch_add(*last);
          }
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each value delivered exactly once
}

// A full queue must not destroy the caller's task: the retry loop depends on
// try_push leaving its argument intact on failure.
TEST(SanitizerStress, MpmcQueueFailedPushKeepsPayload) {
  concurrent::MpmcQueue<std::unique_ptr<int>> queue(2);
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(2)));
  auto extra = std::make_unique<int>(42);
  EXPECT_FALSE(queue.try_push(std::move(extra)));
  ASSERT_NE(extra, nullptr) << "failed push consumed the payload";
  EXPECT_EQ(*extra, 42);
}

// Many submitters racing workers through a deliberately tiny queue: submits
// spin on the full path while workers drain, and drain() must only return
// once every counted task ran.
TEST(SanitizerStress, ThreadPoolSubmitStorm) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 2000;
  concurrent::ThreadPool pool(3, /*queue_capacity=*/32);
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        ASSERT_TRUE(pool.submit([&executed] { executed.fetch_add(1); }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.drain();
  EXPECT_EQ(executed.load(), kSubmitters * kPerSubmitter);
}

// Fan-out storm: pool workers and outside threads fan out at once over a
// tiny queue, so helpers are accepted, refused (queue full) and started
// late, after the call that submitted them returned. Each call's body and
// hit counters live on its caller's stack and die at return: ASan reports a
// late helper touching them, TSan a claim that is not ordered before the
// caller's read.
TEST(SanitizerStress, FanOutSubmitStorm) {
  constexpr int kOutside = 3;
  constexpr int kRounds = 2000;
  concurrent::ThreadPool pool(3, /*queue_capacity=*/8);
  std::atomic<int> wrong{0};
  auto fan_out = [&pool, &wrong](std::size_t n) {
    std::vector<int> hits(n, 0);  // one writer per index, read after return
    concurrent::FanOut(pool).for_each_index(
        n, [&hits](std::size_t i) { ++hits[i]; });
    for (const int hit : hits) {
      if (hit != 1) wrong.fetch_add(1);
    }
  };
  std::vector<std::thread> outside;
  for (int t = 0; t < kOutside; ++t) {
    outside.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) fan_out(2 + (r + t) % 15);
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    pool.submit([&fan_out, r] { fan_out(1 + r % 12); });
  }
  for (auto& t : outside) t.join();
  pool.drain();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(SanitizerStress, ThreadPoolDrainRacesSubmit) {
  concurrent::ThreadPool pool(2, 16);
  std::atomic<int> executed{0};
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load()) pool.drain();
  });
  for (int i = 0; i < 3000; ++i) {
    pool.submit([&executed] { executed.fetch_add(1); });
  }
  pool.drain();
  stop.store(true);
  drainer.join();
  EXPECT_EQ(executed.load(), 3000);
}

// Adders racing the size-triggered flush, the timer flush, and explicit
// flush_now() calls. Every action must run exactly once whichever path
// releases it.
TEST(SanitizerStress, ShuffleQueueConcurrentAddAndFlush) {
  constexpr int kAdders = 4;
  constexpr int kPerAdder = 800;
  constexpr int kTotal = kAdders * kPerAdder;
  ShuffleQueue<Action> shuffle(8, std::chrono::milliseconds(1),
                               run_actions);
  std::atomic<int> released{0};
  std::latch all_released(kTotal);
  std::vector<std::thread> threads;
  for (int a = 0; a < kAdders; ++a) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerAdder; ++i) {
        shuffle.add([&] {
          released.fetch_add(1);
          all_released.count_down();
        });
        if (i % 97 == 0) shuffle.flush_now();
      }
    });
  }
  std::atomic<bool> adders_done{false};
  std::thread flusher([&] {
    while (!adders_done.load()) {
      shuffle.flush_now();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  adders_done.store(true);
  flusher.join();
  shuffle.flush_now();
  // A timer flush may still be mid-batch when flush_now() returns, so the
  // count check can only follow the latch the actions themselves count
  // down. (The old version slept and hoped; under load the in-flight timer
  // batch made released lag the total.)
  all_released.wait();
  EXPECT_EQ(released.load(), kTotal);
  EXPECT_GE(shuffle.flush_count(), 1u);
  EXPECT_EQ(shuffle.buffered(), 0u);
}

// Timer-driven release racing the adder. The shuffle size (64) is never
// reached between handshakes, so only the 1ms timer can release the batch:
// every 16 adds the adder cv-waits until the timer has flushed everything
// added so far. That forces a real timer/adder race each round without the
// old "sleep 2ms and hope a timer fired" pacing, which flaked whenever the
// final count was read while a timer batch was still executing.
TEST(SanitizerStress, ShuffleQueueTimerRacesAdders) {
  ShuffleQueue<Action> shuffle(64, std::chrono::milliseconds(1),
                               run_actions);
  std::atomic<int> released{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;  // guarded by mu
  const auto action = [&] {
    released.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    cv.notify_all();
  };
  constexpr int kActions = 300;
  for (int i = 0; i < kActions; ++i) {
    shuffle.add(action);
    if (i % 16 == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == i + 1; });
    }
  }
  // Destructor flushes the remainder and joins the timer thread.
  {
    ShuffleQueue<Action> drain_on_exit(2, std::chrono::milliseconds(1),
                                       run_actions);
    drain_on_exit.add(action);
  }
  shuffle.flush_now();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == kActions + 1; });
  EXPECT_EQ(released.load(), kActions + 1);
}

TEST(SanitizerStress, PendingStoreConcurrentPutTake) {
  PendingStore store;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> recovered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t handle = store.put(Bytes{1, 2, 3});
        const auto taken = store.take(handle);
        if (taken.ok()) recovered.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recovered.load(), kThreads * kPerThread);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.take(0xdead).ok());
}

TEST(SanitizerStress, RoundRobinChannelConcurrentSend) {
  std::atomic<int> handled{0};
  auto sink = std::make_shared<net::FunctionSink>(
      [&handled](const http::HttpRequest&) {
        handled.fetch_add(1);
        return http::HttpResponse::json_response(200, "{}");
      });
  std::vector<std::shared_ptr<net::HttpChannel>> backends;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(std::make_shared<net::InProcChannel>(*sink));
  }
  net::RoundRobinChannel rr(backends);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        http::HttpRequest request;
        request.method = "GET";
        request.target = "/";
        rr.send(std::move(request), [](http::HttpResponse) {});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(handled.load(), kThreads * kPerThread);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rr.backend_count(); ++i) total += rr.sent_to(i);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Round-robin spreads within one request per thread of perfectly even.
  for (std::size_t i = 0; i < rr.backend_count(); ++i) {
    EXPECT_NEAR(static_cast<double>(rr.sent_to(i)), total / 3.0, kThreads + 1);
  }
}

TEST(SanitizerStress, BreachMonitorConcurrentRecordAndQuery) {
  BreachMonitor monitor(2.0, 16, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&monitor, t] {
      const std::string id = "enclave-" + std::to_string(t);
      for (int i = 0; i < 2000; ++i) monitor.record(id, 1.0);
    });
  }
  std::thread reader([&monitor] {
    for (int i = 0; i < 2000; ++i) {
      monitor.attack_suspected("enclave-0");
      monitor.baseline_ms("enclave-1");
    }
  });
  for (auto& t : threads) t.join();
  reader.join();
  EXPECT_FALSE(monitor.attack_suspected("enclave-0"));
}

TEST(SanitizerStress, TenantRegistryConcurrentUpsertSnapshot) {
  crypto::Drbg rng(to_bytes("tenant-registry-stress"));
  // One pre-generated secret is enough: the registry copies it per tenant,
  // and RSA keygen is far too slow to run inside the racing loops.
  const ApplicationKeys keys = ApplicationKeys::generate(rng, 512);
  TenantRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string id =
            "tenant-" + std::to_string(t) + "-" + std::to_string(i % 10);
        registry.upsert(id, keys.ua);
        if (i % 3 == 0) registry.remove(id);
        registry.contains(id);
      }
    });
  }
  std::thread snapshotter([&registry] {
    for (int i = 0; i < 100; ++i) {
      const TenantKeyring keyring = registry.snapshot();
      ASSERT_LE(keyring.tenants.size(), 30u);
    }
  });
  for (auto& t : threads) t.join();
  snapshotter.join();
  EXPECT_EQ(registry.size(), registry.tenant_ids().size());
  // The keyring snapshot round-trips through the provisioning wire format.
  const Bytes blob = registry.snapshot().serialize();
  ASSERT_TRUE(TenantKeyring::looks_like_keyring(blob));
  EXPECT_TRUE(TenantKeyring::deserialize(blob).ok());
}

}  // namespace
}  // namespace pprox
