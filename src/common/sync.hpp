// PProx sync-abstraction layer: pprox::Mutex, pprox::CondVar, pprox::Atomic,
// pprox::DetThread, pprox::SteadyClock. All concurrency primitives in src/
// go through these types (enforced by the pprox_lint `raw-sync` rule).
//
// Two build flavours:
//
//  * Normal builds: every type is a thin zero-overhead passthrough to the
//    corresponding <mutex>/<condition_variable>/<atomic>/<thread> primitive.
//    No virtual calls, no extra state, no source-location plumbing.
//
//  * -DPPROX_MODEL_CHECK builds: every acquire/release/wait/notify/atomic op
//    first reports to the pprox::det cooperative scheduler (implemented in
//    sync.cpp), which serialises all managed threads and explores thread
//    interleavings — bounded exhaustive DFS with sleep-set pruning and a
//    preemption bound, or PCT-style randomised priorities. Threads that are
//    not under exploration (det::managed() == false) fall through to the real
//    primitives, so ordinary tests still run in a model-check build.
//
// The deterministic scheduler also virtualises time: under exploration,
// SteadyClock::now() reads a logical clock and every timed condition-variable
// wait becomes a nondeterministic "timeout fires" scheduling choice, so
// timer-vs-size flush races are explored systematically instead of by
// sleeping. See DESIGN.md §9 and tools/pprox_check.cpp for the models.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/thread_annotations.hpp"

// Fatal contract check, active in every build flavour (unlike <cassert> it
// does not vanish under NDEBUG: double-joining a thread or re-locking a held
// UniqueLock is a bug we want release builds to catch too). Exits with a
// plain status code rather than SIGABRT so ctest WILL_FAIL harnesses can
// invert it portably.
#define PPROX_SYNC_ASSERT(cond, msg)                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "PPROX_SYNC_ASSERT failed at %s:%d: %s\n",    \
                   __FILE__, __LINE__, msg);                             \
      std::fflush(stderr);                                               \
      std::_Exit(1);                                                     \
    }                                                                    \
  } while (0)

// Held-lock depth check for blocking points (see detail::held_locks).
#define PPROX_ASSERT_HELD_LOCKS(n, msg) \
  PPROX_SYNC_ASSERT(::pprox::detail::held_locks == (n), msg)

#ifdef PPROX_MODEL_CHECK
#include <source_location>
#endif

namespace pprox {

namespace detail {
// Mutex/SharedMutex locks (exclusive or shared) the calling thread holds.
// Blocking points assert it: 0 before an ecall, join, sleep or socket
// write; exactly 1 (the waited lock) in a CondVar wait.
inline thread_local int held_locks = 0;
// Mutex/SharedMutex acquisitions by the calling thread, never decremented:
// tests/test_alloc_budget.cpp reads it around a call to count its locks.
inline thread_local std::uint64_t lock_acquisitions = 0;
inline void on_lock() noexcept {
  ++held_locks;
  ++lock_acquisitions;
}
}  // namespace detail

class CondVar;
class Mutex;
class UniqueLock;

#ifdef PPROX_MODEL_CHECK

namespace det {

// One schedule-relevant operation kind. Used for trace printing and for the
// independence relation behind sleep-set pruning.
enum class OpKind : std::uint8_t {
  kMutexLock,
  kMutexUnlock,
  kCvWait,       // wait entry: atomically releases the mutex and blocks
  kCvWake,       // wait exit: woken (notify or timeout) and reacquires
  kCvNotifyOne,
  kCvNotifyAll,
  kAtomicLoad,
  kAtomicStore,
  kAtomicRmw,
  kThreadCreate,
  kThreadStart,  // first scheduling of a new thread
  kThreadJoin,
  kThreadExit,
  kYield,
  kTimeAdvance,
};

const char* op_name(OpKind kind);

// Trimmed std::source_location: the full object is not trivially copyable
// across the scheduler boundary and we only print file:line.
struct SourceLoc {
  const char* file = "?";
  unsigned line = 0;
};

inline SourceLoc loc_of(const std::source_location& loc) {
  return SourceLoc{loc.file_name(), loc.line()};
}

// Per-object identity shared between the primitive and the scheduler. Lives
// inside Mutex/CondVar/Atomic so no global registry lookup is needed on the
// hot path; the scheduler assigns `id` on first use within an exploration
// and resets it between executions for stable numbering.
struct ObjRecord {
  std::uint64_t id = 0;
  int owner = -1;            // mutex: managed thread id currently holding it
  std::uint64_t tokens = 0;  // condvar: pending notify wake permits
  std::uint64_t epoch = 0;   // execution that last touched this record
};

// --- Managed-thread API (called from the primitives below). ------------

// True iff the calling thread is under the deterministic scheduler. All
// primitives branch on this so unmanaged threads in a model-check build
// (ordinary unit tests, the ctest runner itself) use the real OS paths.
bool managed() noexcept;

void mutex_lock(ObjRecord* mu, SourceLoc loc);
void mutex_unlock(ObjRecord* mu, SourceLoc loc);
// Returns false iff the wait ended by timeout. `deadline_ms` is on the
// virtual clock; ignored when `timed` is false.
bool cv_wait(ObjRecord* cv, ObjRecord* mu, bool timed, std::uint64_t deadline_ms,
             SourceLoc loc);
void cv_notify(ObjRecord* cv, bool all, SourceLoc loc);
void atomic_op(const ObjRecord* obj, OpKind kind, SourceLoc loc);
int thread_create(const char* name, SourceLoc loc);
void thread_start(int self_id);
void thread_exit(int self_id);
void thread_join(int child_id, SourceLoc loc);
void yield(SourceLoc loc = loc_of(std::source_location::current()));

// Virtual clock (milliseconds). Starts at kVirtualEpochMs each execution.
inline constexpr std::uint64_t kVirtualEpochMs = 1'000'000;
std::uint64_t now_ms() noexcept;
// Explicit logical-time step for models (a schedule point like any other).
void advance_time(std::uint64_t delta_ms,
                  SourceLoc loc = loc_of(std::source_location::current()));

// Model-facing invariant check: prints the numbered interleaving trace with
// a replayable schedule and exits non-zero. Callable from any managed
// thread.
[[noreturn]] void model_fail(const std::string& message);
inline void model_check(bool ok, const char* message) {
  if (!ok) model_fail(message);
}
// Monotonic step counter of the current execution (for history recording in
// linearizability checks).
std::uint64_t current_step() noexcept;

// --- Explorer API (called from tools/pprox_check). ----------------------

struct Options {
  enum class Mode { kDfs, kPct };
  Mode mode = Mode::kDfs;
  // DFS: max context switches away from a still-enabled thread per execution.
  int preemption_bound = 2;
  bool sleep_sets = true;
  // Safety caps: an execution longer than max_steps is truncated (counted,
  // reported, treated as a leaf); exploration stops after max_execs
  // executions (0 = unbounded).
  std::uint64_t max_steps = 20000;
  std::uint64_t max_execs = 0;
  // PCT: `pct_iters` random-priority executions with `pct_depth - 1`
  // priority-change points, seeded from `seed`.
  std::uint64_t seed = 1;
  int pct_iters = 500;
  int pct_depth = 3;
  // Replay: follow this exact schedule (chosen managed-thread id per step),
  // then fall back to the default policy once exhausted.
  std::vector<int> replay;
  bool verbose = false;
  const char* model_name = "model";
};

struct Report {
  std::uint64_t executions = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t truncated = 0;  // executions cut off at max_steps
  bool exhaustive = false;      // DFS ran the whole bounded tree
};

// Runs `body` (as managed thread 0) under every explored schedule. On an
// invariant violation or deadlock this does not return: the trace is printed
// and the process exits 1. Not reentrant.
Report explore(const Options& options, const std::function<void()>& body);

}  // namespace det

// ---------------------------------------------------------------------------
// Model-check flavour: primitives report to the scheduler, then perform the
// real operation (uncontended, because the scheduler admits one managed
// thread at a time).
// ---------------------------------------------------------------------------

#define PPROX_SYNC_LOC                      \
  const std::source_location& sloc = std::source_location::current()

class PPROX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  Mutex(Mutex&&) = delete;
  Mutex& operator=(Mutex&&) = delete;

 private:  // locked only through the guards below
  void lock(PPROX_SYNC_LOC) PPROX_ACQUIRE() {
    if (det::managed()) det::mutex_lock(&rec_, det::loc_of(sloc));
    real_.lock();
    detail::on_lock();
  }
  void unlock(PPROX_SYNC_LOC) PPROX_RELEASE() {
    --detail::held_locks;
    real_.unlock();
    if (det::managed()) det::mutex_unlock(&rec_, det::loc_of(sloc));
  }

  friend class CondVar;
  friend class LockGuard;
  friend class UniqueLock;
  std::mutex real_;
  det::ObjRecord rec_;
};

#else  // !PPROX_MODEL_CHECK

// ---------------------------------------------------------------------------
// Normal flavour: zero-overhead passthroughs.
// ---------------------------------------------------------------------------

class PPROX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  Mutex(Mutex&&) = delete;
  Mutex& operator=(Mutex&&) = delete;

 private:  // locked only through the guards below
  void lock() PPROX_ACQUIRE() { real_.lock(); detail::on_lock(); }
  void unlock() PPROX_RELEASE() { --detail::held_locks; real_.unlock(); }

  friend class CondVar;
  friend class LockGuard;
  friend class UniqueLock;
  std::mutex real_;
};

#endif  // PPROX_MODEL_CHECK

// Reader/writer mutex. In normal builds a std::shared_mutex passthrough;
// under exploration shared acquisitions degrade to exclusive ones — a sound
// over-approximation (readers never conflict, so serialising them removes no
// observable behaviour while keeping the scheduler's mutex protocol simple).
class PPROX_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;
  SharedMutex(SharedMutex&&) = delete;
  SharedMutex& operator=(SharedMutex&&) = delete;

 private:  // locked only through ReadLock/WriteLock
  friend class ReadLock;
  friend class WriteLock;
#ifdef PPROX_MODEL_CHECK
  void lock(PPROX_SYNC_LOC) PPROX_ACQUIRE() {
    if (det::managed()) det::mutex_lock(&rec_, det::loc_of(sloc));
    real_.lock();
    detail::on_lock();
  }
  void unlock(PPROX_SYNC_LOC) PPROX_RELEASE() {
    --detail::held_locks;
    real_.unlock();
    if (det::managed()) det::mutex_unlock(&rec_, det::loc_of(sloc));
  }
  void lock_shared(PPROX_SYNC_LOC) PPROX_ACQUIRE_SHARED() {
    detail::on_lock();
    if (det::managed()) {
      det::mutex_lock(&rec_, det::loc_of(sloc));
      real_.lock();  // exclusive under exploration (see class comment)
      return;
    }
    real_.lock_shared();
  }
  void unlock_shared(PPROX_SYNC_LOC) PPROX_RELEASE_SHARED() {
    --detail::held_locks;
    if (det::managed()) {
      real_.unlock();
      det::mutex_unlock(&rec_, det::loc_of(sloc));
      return;
    }
    real_.unlock_shared();
  }
#else
  void lock() PPROX_ACQUIRE() { real_.lock(); detail::on_lock(); }
  void unlock() PPROX_RELEASE() { --detail::held_locks; real_.unlock(); }
  void lock_shared() PPROX_ACQUIRE_SHARED() {
    real_.lock_shared();
    detail::on_lock();
  }
  void unlock_shared() PPROX_RELEASE_SHARED() {
    --detail::held_locks;
    real_.unlock_shared();
  }
#endif

  std::shared_mutex real_;
#ifdef PPROX_MODEL_CHECK
  det::ObjRecord rec_;
#endif
};

// RAII lock for a whole scope. Equivalent of std::lock_guard.
class PPROX_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) PPROX_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() PPROX_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

// Relockable RAII lock, usable with CondVar. Equivalent of std::unique_lock.
class PPROX_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) PPROX_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
    owned_ = true;
  }
  ~UniqueLock() PPROX_RELEASE() {
    if (owned_) mutex_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:  // released and retaken only by a ScopedUnlock scope
  friend class ScopedUnlock;
  void lock() PPROX_ACQUIRE() {
    PPROX_SYNC_ASSERT(!owned_, "UniqueLock::lock() on a held lock");
    mutex_->lock();
    owned_ = true;
  }
  void unlock() PPROX_RELEASE() {
    PPROX_SYNC_ASSERT(owned_, "UniqueLock::unlock() on a released lock");
    mutex_->unlock();
    owned_ = false;
  }

 public:
  bool owns_lock() const noexcept { return owned_; }
  Mutex* mutex() const noexcept PPROX_RETURN_CAPABILITY(*mutex_) {
    return mutex_;
  }

 private:
  Mutex* mutex_;
  bool owned_ = false;
};

// RAII exclusive (writer) lock on a SharedMutex.
class PPROX_SCOPED_CAPABILITY WriteLock {
 public:
  explicit WriteLock(SharedMutex& mutex) PPROX_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~WriteLock() PPROX_RELEASE() { mutex_.unlock(); }
  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// RAII shared (reader) lock on a SharedMutex.
class PPROX_SCOPED_CAPABILITY ReadLock {
 public:
  explicit ReadLock(SharedMutex& mutex) PPROX_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ReadLock() PPROX_RELEASE_SHARED() { mutex_.unlock_shared(); }
  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// Inverse RAII: releases a held UniqueLock for the current scope and
// re-acquires it on exit. The only way to write the
// `lock.unlock(); call(); lock.lock();` juggle: those calls are private,
// because an early return or a throw between them leaves the lock in the
// wrong state. Clang's thread-safety analysis cannot model an
// un-then-relock scope, hence the opt-out annotations.
class ScopedUnlock {
 public:
  explicit ScopedUnlock(UniqueLock& lock) PPROX_NO_THREAD_SAFETY_ANALYSIS
      : lock_(lock) {
    PPROX_SYNC_ASSERT(lock_.owns_lock(), "ScopedUnlock on a released lock");
    lock_.unlock();
  }
  ~ScopedUnlock() PPROX_NO_THREAD_SAFETY_ANALYSIS { lock_.lock(); }
  ScopedUnlock(const ScopedUnlock&) = delete;
  ScopedUnlock& operator=(const ScopedUnlock&) = delete;

 private:
  UniqueLock& lock_;
};

// Condition variable working with UniqueLock over pprox::Mutex. Only the
// predicate waits are public, and each asserts that the waited lock is the
// only one held: any other would stay held while the thread sleeps.
class CondVar {
 public:
  CondVar() = default;
  ~CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

#ifdef PPROX_MODEL_CHECK

  void notify_one(PPROX_SYNC_LOC) {
    if (det::managed()) {
      det::cv_notify(&rec_, /*all=*/false, det::loc_of(sloc));
      return;
    }
    real_.notify_one();
  }
  void notify_all(PPROX_SYNC_LOC) {
    if (det::managed()) {
      det::cv_notify(&rec_, /*all=*/true, det::loc_of(sloc));
      return;
    }
    real_.notify_all();
  }

 private:  // predicate-less: a spurious wakeup would skip the check
  void wait(UniqueLock& lock, PPROX_SYNC_LOC) {
    if (det::managed()) {
      wait_managed(lock, /*timed=*/false, 0, det::loc_of(sloc));
      return;
    }
    real_.wait(lock.mutex()->real_);
  }

 public:
  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred, PPROX_SYNC_LOC) {
    assert_sole_lock();
    while (!pred()) wait(lock, sloc);
  }

 private:
  std::cv_status wait_until(UniqueLock& lock,
                            std::chrono::steady_clock::time_point deadline,
                            PPROX_SYNC_LOC) {
    if (det::managed()) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline.time_since_epoch())
                          .count();
      const std::uint64_t deadline_ms = ms < 0 ? 0 : static_cast<std::uint64_t>(ms);
      return wait_managed(lock, /*timed=*/true, deadline_ms, det::loc_of(sloc))
                 ? std::cv_status::no_timeout
                 : std::cv_status::timeout;
    }
    return real_.wait_until(lock.mutex()->real_, deadline);
  }

 public:
  template <typename Predicate>
  bool wait_until(UniqueLock& lock,
                  std::chrono::steady_clock::time_point deadline,
                  Predicate pred, PPROX_SYNC_LOC) {
    assert_sole_lock();
    while (!pred()) {
      if (wait_until(lock, deadline, sloc) == std::cv_status::timeout) {
        return pred();
      }
    }
    return true;
  }

#else  // !PPROX_MODEL_CHECK

  void notify_one() { real_.notify_one(); }
  void notify_all() { real_.notify_all(); }

 private:  // predicate-less: a spurious wakeup would skip the check
  void wait(UniqueLock& lock) { real_.wait(lock.mutex()->real_); }

 public:
  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) {
    assert_sole_lock();
    while (!pred()) wait(lock);
  }

 private:
  std::cv_status wait_until(UniqueLock& lock,
                            std::chrono::steady_clock::time_point deadline) {
    return real_.wait_until(lock.mutex()->real_, deadline);
  }

 public:
  template <typename Predicate>
  bool wait_until(UniqueLock& lock,
                  std::chrono::steady_clock::time_point deadline,
                  Predicate pred) {
    assert_sole_lock();
    while (!pred()) {
      if (wait_until(lock, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

#endif  // PPROX_MODEL_CHECK

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(UniqueLock& lock, std::chrono::duration<Rep, Period> duration,
                Predicate pred) {
    return wait_until(lock,
                      SteadyNow() + std::chrono::duration_cast<
                                        std::chrono::steady_clock::duration>(
                                        duration),
                      std::move(pred));
  }

 private:
  static std::chrono::steady_clock::time_point SteadyNow();
  static void assert_sole_lock() {
    PPROX_ASSERT_HELD_LOCKS(1, "CondVar wait must hold only the waited lock");
  }

#ifdef PPROX_MODEL_CHECK
  // Returns true if woken by a notify, false on timeout. Drops the logical
  // and real mutex, parks in the scheduler, reacquires on wake.
  bool wait_managed(UniqueLock& lock, bool timed, std::uint64_t deadline_ms,
                    det::SourceLoc loc) {
    Mutex* mu = lock.mutex();
    mu->real_.unlock();
    const bool notified = det::cv_wait(&rec_, &mu->rec_, timed, deadline_ms, loc);
    mu->real_.lock();
    return notified;
  }
  // Releases and retakes the underlying std::mutex directly; used only on
  // unmanaged threads in model-check builds.
  std::condition_variable_any real_;
  det::ObjRecord rec_;
#else
  std::condition_variable_any real_;
#endif
};

// Virtualisable monotonic clock. In normal builds this is exactly
// std::chrono::steady_clock; under exploration now() reads the scheduler's
// logical clock so timeouts become schedule choices instead of wall waits.
struct SteadyClock {
  using duration = std::chrono::steady_clock::duration;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::steady_clock::time_point;
  static constexpr bool is_steady = true;

  static time_point now() {
#ifdef PPROX_MODEL_CHECK
    if (det::managed()) {
      return time_point(std::chrono::duration_cast<duration>(
          std::chrono::milliseconds(det::now_ms())));
    }
#endif
    return std::chrono::steady_clock::now();
  }
};

inline std::chrono::steady_clock::time_point CondVar::SteadyNow() {
  return SteadyClock::now();
}

// The one sleep src/ may use (std::this_thread sleeps are raw-sync findings).
inline void sleep_until(SteadyClock::time_point deadline) {
  PPROX_ASSERT_HELD_LOCKS(0, "sleep_until while holding a lock");
  std::this_thread::sleep_until(deadline);
}

// Sequentially-consistent-by-default atomic. Memory-order arguments are
// accepted and forwarded in normal builds; under exploration every op is a
// schedule point and executes seq-cst (the scheduler serialises managed
// threads anyway, so weaker orders add no behaviours it can see).
template <typename T>
class Atomic {
 public:
  Atomic() noexcept = default;
  constexpr Atomic(T desired) noexcept : real_(desired) {}
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

#ifdef PPROX_MODEL_CHECK
#define PPROX_ATOMIC_POINT(kind)                                      \
  do {                                                                \
    if (det::managed())                                               \
      det::atomic_op(&rec_, det::OpKind::kind, det::loc_of(sloc));    \
  } while (0)
#define PPROX_ATOMIC_ARGS PPROX_SYNC_LOC
#else
#define PPROX_ATOMIC_POINT(kind) \
  do {                           \
  } while (0)
#define PPROX_ATOMIC_ARGS int = 0
#endif

  T load(std::memory_order order = std::memory_order_seq_cst,
         PPROX_ATOMIC_ARGS) const noexcept {
    PPROX_ATOMIC_POINT(kAtomicLoad);
    return real_.load(order);
  }
  void store(T desired, std::memory_order order = std::memory_order_seq_cst,
             PPROX_ATOMIC_ARGS) noexcept {
    PPROX_ATOMIC_POINT(kAtomicStore);
    real_.store(desired, order);
  }
  T exchange(T desired, std::memory_order order = std::memory_order_seq_cst,
             PPROX_ATOMIC_ARGS) noexcept {
    PPROX_ATOMIC_POINT(kAtomicRmw);
    return real_.exchange(desired, order);
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order order = std::memory_order_seq_cst,
                             PPROX_ATOMIC_ARGS) noexcept {
    PPROX_ATOMIC_POINT(kAtomicRmw);
    return real_.compare_exchange_weak(expected, desired, order,
                                       load_order(order));
  }
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order order = std::memory_order_seq_cst,
                               PPROX_ATOMIC_ARGS) noexcept {
    PPROX_ATOMIC_POINT(kAtomicRmw);
    return real_.compare_exchange_strong(expected, desired, order,
                                         load_order(order));
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U> &&
                                        !std::is_same_v<U, bool>>>
  T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst,
              PPROX_ATOMIC_ARGS) noexcept {
    PPROX_ATOMIC_POINT(kAtomicRmw);
    return real_.fetch_add(arg, order);
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U> &&
                                        !std::is_same_v<U, bool>>>
  T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst,
              PPROX_ATOMIC_ARGS) noexcept {
    PPROX_ATOMIC_POINT(kAtomicRmw);
    return real_.fetch_sub(arg, order);
  }

#undef PPROX_ATOMIC_POINT
#undef PPROX_ATOMIC_ARGS

 private:
  // Failure order for CAS: drop the release part of the success order.
  static constexpr std::memory_order load_order(std::memory_order order) {
    switch (order) {
      case std::memory_order_acq_rel:
        return std::memory_order_acquire;
      case std::memory_order_release:
        return std::memory_order_relaxed;
      default:
        return order;
    }
  }

  std::atomic<T> real_{};
#ifdef PPROX_MODEL_CHECK
  mutable det::ObjRecord rec_;
#endif
};

// Joinable thread with a double-join contract check; under exploration the
// body runs as a managed thread with create/start/join/exit schedule points.
class DetThread {
 public:
  DetThread() = default;

#ifdef PPROX_MODEL_CHECK
  explicit DetThread(std::function<void()> fn, const char* name = "thread",
                     PPROX_SYNC_LOC) {
    if (det::managed()) {
      det_id_ = det::thread_create(name, det::loc_of(sloc));
      const int id = det_id_;
      os_ = std::thread([fn = std::move(fn), id] {
        det::thread_start(id);
        fn();
        det::thread_exit(id);
      });
      return;
    }
    os_ = std::thread(std::move(fn));
  }
#else
  explicit DetThread(std::function<void()> fn, const char* = "thread")
      : os_(std::move(fn)) {}
#endif

  DetThread(DetThread&& other) noexcept = default;
  DetThread& operator=(DetThread&& other) noexcept {
    PPROX_SYNC_ASSERT(!os_.joinable(),
                      "DetThread assigned over a joinable thread");
    os_ = std::move(other.os_);
#ifdef PPROX_MODEL_CHECK
    det_id_ = other.det_id_;
    other.det_id_ = -1;
#endif
    return *this;
  }
  DetThread(const DetThread&) = delete;
  DetThread& operator=(const DetThread&) = delete;

  // Like std::thread, destroying a joinable DetThread terminates: losing a
  // running thread silently is never intended in this codebase.
  ~DetThread() {
    PPROX_SYNC_ASSERT(!os_.joinable(), "DetThread destroyed without join()");
  }

  bool joinable() const noexcept { return os_.joinable(); }

#ifdef PPROX_MODEL_CHECK
  void join(PPROX_SYNC_LOC) {
    PPROX_SYNC_ASSERT(os_.joinable(), "DetThread joined twice");
    PPROX_ASSERT_HELD_LOCKS(0, "DetThread::join while holding a lock");
    if (det_id_ >= 0 && det::managed()) {
      det::thread_join(det_id_, det::loc_of(sloc));
    }
    os_.join();
  }
#else
  void join() {
    PPROX_SYNC_ASSERT(os_.joinable(), "DetThread joined twice");
    PPROX_ASSERT_HELD_LOCKS(0, "DetThread::join while holding a lock");
    os_.join();
  }
#endif

 private:
  std::thread os_;
#ifdef PPROX_MODEL_CHECK
  int det_id_ = -1;
#endif
};

#ifdef PPROX_MODEL_CHECK
#undef PPROX_SYNC_LOC
#endif

}  // namespace pprox
