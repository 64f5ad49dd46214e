// PPROX-LAYER: tooling
//
// Negative-compile case: predicate-less CondVar waits are private (a
// spurious wakeup would skip the invariant check).
#include "common/sync.hpp"

namespace pprox {

void park(Mutex& mu, CondVar& cv, const bool& ready) {
  UniqueLock lock(mu);
#ifdef PPROX_VIOLATION
  cv.wait(lock);
  cv.wait_until(lock, SteadyClock::now());
#else
  cv.wait(lock, [&] { return ready; });
  cv.wait_until(lock, SteadyClock::now(), [&] { return ready; });
#endif
}

}  // namespace pprox
