// Worker thread pool draining an MpmcQueue of tasks. Models the paper's
// in-enclave data-processing pool (§5): the server thread enqueues parsed
// packets, workers perform crypto and forwarding.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "concurrent/mpmc_queue.hpp"

namespace pprox::concurrent {

/// Fixed-size pool executing std::function<void()> tasks in FIFO-ish order.
/// submit() blocks only when the bounded queue is full (backpressure).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads, std::size_t queue_capacity = 4096)
      : queue_(queue_capacity) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back(DetThread([this] { worker_loop(); }, "pool-worker"));
    }
  }

  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; spins briefly then sleeps when the queue is full.
  /// Returns false after shutdown() (task is dropped). Every task accepted
  /// (true returned) is guaranteed to execute before shutdown() completes.
#ifdef PPROX_CHECK_SELFTEST
  // Fault injection for pprox_check --model pool (tools/CMakeLists.txt):
  // the pre-fix submit/shutdown pair, preserved verbatim (apart from the
  // published_ bump every publish makes for worker_loop). A submit() here
  // can pass its stopping_ check, lose the CPU, and publish its task after
  // shutdown() joined every worker — the task is accepted but never runs
  // (tools/traces/pool_lost_task.txt). The selftest build must make the
  // model FAIL on exactly this schedule.
  bool submit(std::function<void()> task) {
    while (!stopping_.load(std::memory_order_acquire)) {
      pending_.fetch_add(1, std::memory_order_acq_rel);
      if (queue_.try_push(std::move(task))) {
        LockGuard lock(mutex_);
        published_.fetch_add(1, std::memory_order_acq_rel);
        cv_.notify_one();
        return true;
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        LockGuard lock(mutex_);
        drained_cv_.notify_all();
      }
      std::this_thread::yield();
    }
    return false;
  }
#else
  bool submit(std::function<void()> task) { return publish(task, true); }
#endif

  /// Like submit(), but never waits for queue space: returns false when the
  /// queue is full or the pool is shut down, and then leaves `task` intact
  /// so the caller can run it itself.
  bool try_submit(std::function<void()>& task) { return publish(task, false); }

  /// Blocks until every submitted task has finished executing.
  void drain() {
    UniqueLock lock(mutex_);
    drained_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  /// Stops accepting tasks, finishes queued work, joins all workers.
#ifdef PPROX_CHECK_SELFTEST
  void shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    {
      LockGuard lock(mutex_);
      cv_.notify_all();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }
#else
  void shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    {
      LockGuard lock(mutex_);
      cv_.notify_all();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    // A submit() that passed its stopping_ check before the CAS above may
    // publish its task only after every worker exited. Wait for such
    // stragglers to land, then run whatever is left inline so "accepted
    // implies executed" holds.
    {
      UniqueLock lock(mutex_);
      submit_done_cv_.wait(lock, [this] {
        return in_flight_submits_.load(std::memory_order_acquire) == 0;
      });
    }
    while (auto task = queue_.try_pop()) {
      (*task)();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        LockGuard lock(mutex_);
        drained_cv_.notify_all();
      }
    }
  }
#endif

  std::size_t num_threads() const { return workers_.size(); }

 private:
  bool publish(std::function<void()>& task, bool wait_for_space) {
    // The in-flight gate lets shutdown() tell "no submit will ever publish
    // again" apart from "no submit is publishing right now": a submit that
    // passed its stopping_ check races shutdown() joining the workers, and
    // its accepted task would otherwise sit in the queue forever.
    in_flight_submits_.fetch_add(1, std::memory_order_acq_rel);
    bool pushed = false;
    while (!stopping_.load(std::memory_order_acquire)) {
      // Count the task BEFORE publishing it: a worker may pop and finish it
      // the instant try_push succeeds, and its fetch_sub must never observe
      // a counter the task is missing from (transient underflow would let
      // drain() return while work is still in flight).
      pending_.fetch_add(1, std::memory_order_acq_rel);
      if (queue_.try_push(std::move(task))) {  // full: `task` not consumed
        LockGuard lock(mutex_);
        published_.fetch_add(1, std::memory_order_acq_rel);
        cv_.notify_one();
        pushed = true;
        break;
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        LockGuard lock(mutex_);
        drained_cv_.notify_all();
      }
      if (!wait_for_space) break;
      std::this_thread::yield();
    }
    {
      LockGuard lock(mutex_);
      if (in_flight_submits_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        submit_done_cv_.notify_all();
      }
    }
    return pushed;
  }

  void worker_loop() {
    while (true) {
      // Read before the pop: a publish after this point changes it, so the
      // wait below cannot miss the task that publish made poppable.
      const std::uint64_t seen = published_.load(std::memory_order_acquire);
      auto task = queue_.try_pop();
      if (task.has_value()) {
        (*task)();
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          LockGuard lock(mutex_);
          drained_cv_.notify_all();
        }
        continue;
      }
      if (stopping_.load(std::memory_order_acquire)) return;
      // Untimed wait for the next publish: every try_push success bumps
      // published_ and notifies under mutex_, as does shutdown() with
      // stopping_, so no wakeup can be lost. (An earlier 1ms timed wait
      // polled instead, and spun under a worker-favouring schedule —
      // tools/traces/pool_worker_spin.txt. Waking on "queue non-empty"
      // spun too, while a submitter had claimed a slot but not yet
      // published it — tools/traces/pool_half_published_spin.txt.)
      UniqueLock lock(mutex_);
      cv_.wait(lock, [this, seen] {
        return stopping_.load(std::memory_order_acquire) ||
               published_.load(std::memory_order_acquire) != seen;
      });
    }
  }

  MpmcQueue<std::function<void()>> queue_;  // lock-free, internally ordered
  std::vector<DetThread> workers_;
  Atomic<bool> stopping_{false};
  Atomic<std::size_t> pending_{0};
  Atomic<std::size_t> in_flight_submits_{0};
  Atomic<std::uint64_t> published_{0};  // bumped under mutex_ per push
  Mutex mutex_;  // guards only the cv sleep/wake protocol
  CondVar cv_;
  CondVar drained_cv_;
  CondVar submit_done_cv_;  // shutdown() waits out straggling submit()s
};

/// Runs body(i) exactly once for every i in [0, n), on the calling thread
/// plus up to `pool.num_threads() - 1` helper tasks of a ThreadPool. This is
/// the proxy's in-enclave worker pool sharing one flush (DESIGN.md §14.5):
/// the flushing thread and the helpers claim indices from one atomic
/// cursor, and the caller returns once every index has finished.
///
/// Deadlock-free by construction: the caller waits only for indices that
/// were already *claimed*, and a claimer is a running thread inside body,
/// never a queued task. So the caller may itself be a pool worker, and every
/// worker may fan out at once. A helper that starts after the call returned
/// finds the cursor exhausted and touches only the job it co-owns. A helper
/// the pool refuses (queue full, or shut down) is simply not started; the
/// caller claims its share.
///
/// A default-constructed FanOut has no pool: every index runs on the
/// calling thread, in order. So does any call with n <= 1, which submits no
/// helper. `body` must be safe to call concurrently for distinct indices,
/// and must not throw once helpers are running (a throw terminates).
class FanOut {
 public:
  FanOut() = default;
  explicit FanOut(ThreadPool& pool)
      : pool_(&pool),
        helpers_(pool.num_threads() > 0 ? pool.num_threads() - 1 : 0) {}

  template <typename Body>
  void for_each_index(std::size_t n, const Body& body) const {
    const std::size_t helpers = n > 1 ? std::min(helpers_, n - 1) : 0;
    if (helpers == 0) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    // PPROX-HOTPATH-OK(alloc): one job per multi-slot flush, shared with
    // helpers that may outlive this call; it costs far less than one unwrap.
    const auto job = std::make_shared<Job>(n, &invoke<Body>, &body);
    std::size_t submitted = 0;
    for (; submitted < helpers; ++submitted) {
      // shared_ptr fits std::function's inline buffer: no allocation here.
      std::function<void()> task = [job] { job->help(); };  // PPROX-HOTPATH-OK(alloc): the capture is one shared_ptr, stored inline
      if (!pool_->try_submit(task)) break;  // PPROX-HOTPATH-OK(block): try_submit never waits for queue space; its lock only guards a notify
    }
    job->claim_all();
    // Every index is claimed now; wait for the claimers still inside body.
    // PPROX-CT-OK(branch): a count of finished indices; the job holds no
    // secret, only the body's address and counters.
    if (job->finished(submitted)) return;
    UniqueLock lock(job->mutex);  // PPROX-HOTPATH-OK(block): waits only for claimed indices, whose claimers are running
    // PPROX-CT-OK(branch): as above; the wait's lock and predicate read
    // only the job's counters.
    job->cv.wait(lock, [&job, submitted] { return job->finished(submitted); });  // PPROX-HOTPATH-OK(block): see above; bounded by one body call per helper
  }

 private:
  using Invoke = void (*)(const void* body, std::size_t index);

  template <typename Body>
  static void invoke(const void* body, std::size_t index) {
    (*static_cast<const Body*>(body))(index);
  }

  struct Job {
    Job(std::size_t count, Invoke fn, const void* body_ptr)
        : n(count), invoke(fn), body(body_ptr) {}

    /// Claims and runs indices until the cursor passes n. `body` is
    /// dereferenced only under a claim, i.e. while the caller still waits.
    void claim_all() noexcept {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_acq_rel);
        if (i >= n) return;
        invoke(body, i);
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          LockGuard lock(mutex);  // PPROX-HOTPATH-OK(block): once per job, by the thread finishing the last index, to wake the caller
          cv.notify_all();  // PPROX-HOTPATH-OK(block): notify never blocks; the det-scheduler park it reaches is PPROX_MODEL_CHECK-only
        }
      }
    }

    /// The caller may return: every index has run.
    bool finished(std::size_t submitted) const {
#ifdef PPROX_CHECK_SELFTEST
      // Fault injection for pprox_check --model fanout (tools/CMakeLists.txt):
      // the caller also waits for every helper it SUBMITTED, including one
      // still queued behind busy workers. Two workers that fan out at once
      // then each wait on a helper queued behind the other, and the pool
      // deadlocks (tools/traces/fanout_wait_submitted.txt). The selftest
      // build must make the model FAIL on exactly this schedule.
      return done.load(std::memory_order_acquire) == n &&
             helpers_finished.load(std::memory_order_acquire) == submitted;
#else
      (void)submitted;
      return done.load(std::memory_order_acquire) == n;
#endif
    }

    /// A helper task: claim like the caller does.
    void help() noexcept {
      claim_all();
#ifdef PPROX_CHECK_SELFTEST
      LockGuard lock(mutex);  // PPROX-HOTPATH-OK(block): PPROX_CHECK_SELFTEST-only fault injection, never in the production proxy
      helpers_finished.fetch_add(1, std::memory_order_acq_rel);
      cv.notify_all();  // PPROX-HOTPATH-OK(block): PPROX_CHECK_SELFTEST-only fault injection
#endif
    }

    const std::size_t n;
    const Invoke invoke;
    const void* const body;  // the caller's, valid while it waits
    Atomic<std::size_t> next{0};
    Atomic<std::size_t> done{0};
#ifdef PPROX_CHECK_SELFTEST
    Atomic<std::size_t> helpers_finished{0};
#endif
    Mutex mutex;  // guards only the caller's sleep/wake protocol
    CondVar cv;
  };

  ThreadPool* pool_ = nullptr;
  std::size_t helpers_ = 0;
};

}  // namespace pprox::concurrent
