// PPROX-LAYER: tooling
//
// Negative-compile case: Mutex and UniqueLock lock()/unlock() are private,
// so neither a bare lock/unlock pair nor an unlock-work-relock juggle
// compiles. The control writes both with ScopedUnlock and LockGuard.
#include "common/sync.hpp"

namespace pprox {

void bump(Mutex& outer, Mutex& inner, int& n) {
  UniqueLock lock(outer);
#ifdef PPROX_VIOLATION
  lock.unlock();
  inner.lock();
  ++n;
  inner.unlock();
  lock.lock();
#else
  ScopedUnlock unlocked(lock);
  LockGuard guard(inner);
  ++n;
#endif
}

}  // namespace pprox
