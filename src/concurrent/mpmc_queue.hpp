// Bounded lock-free multi-producer/multi-consumer queue (Dmitry Vyukov's
// algorithm). This is the shared work queue between the proxy's server
// thread and the enclave data-processing thread pool (paper §5 uses
// Desrochers' queue; Vyukov's bounded design gives the same non-blocking
// hand-off with natural backpressure when the proxy saturates).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/sync.hpp"

namespace pprox::concurrent {

template <typename T>
class MpmcQueue {
 public:
  /// capacity is rounded up to a power of two; must be >= 2.
  explicit MpmcQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Attempts to enqueue; false when the queue is full. On failure the
  /// argument is left untouched (not moved-from), so callers can retry with
  /// the same object.
  bool try_push(T&& value) { return push_impl(std::move(value)); }
  bool try_push(const T& value) { return push_impl(value); }

  /// Attempts to dequeue; nullopt when the queue is empty.
#ifdef PPROX_CHECK_SELFTEST
  // Fault injection for pprox_check --model mpmc (tools/CMakeLists.txt): a
  // broken dequeue that claims a slot with fetch_add BEFORE checking its
  // sequence. A pop racing an in-flight push burns the slot and returns
  // empty, so the pushed element is skipped forever — the history is not
  // linearizable against the FIFO spec and the selftest build must FAIL.
  std::optional<T> try_pop() {
    const std::size_t pos = head_.fetch_add(1, std::memory_order_relaxed);
    Cell* cell = &cells_[pos & mask_];
    const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
    if (seq != pos + 1) return std::nullopt;  // slot already consumed: lost
    T value = std::move(cell->value);
    cell->value = T();
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return value;
  }
#else
  std::optional<T> try_pop() {
    Cell* cell;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    T value = std::move(cell->value);
    cell->value = T();  // release resources held by the slot immediately
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return value;
  }
#endif  // PPROX_CHECK_SELFTEST

 private:
  template <typename U>
  bool push_impl(U&& value) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full; `value` not consumed
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::forward<U>(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  // T must be default-constructible and move-assignable; slots hold live
  // (possibly empty) objects, which sidesteps placement-new lifetime rules.
  struct alignas(64) Cell {
    Atomic<std::size_t> sequence;
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_;
  alignas(64) Atomic<std::size_t> head_;
  alignas(64) Atomic<std::size_t> tail_;
};

}  // namespace pprox::concurrent
