// PPROX-LAYER: tooling
//
// Negative-RUN case: a CondVar wait must hold only the waited lock
// (PPROX_SYNC_ASSERT exits 1). The control takes the second lock after.
#include "common/sync.hpp"

int main() {
  pprox::Mutex waited;
  pprox::Mutex other;
  pprox::CondVar cv;
#ifdef PPROX_VIOLATION
  pprox::LockGuard held(other);
#endif
  pprox::UniqueLock lock(waited);
  cv.wait(lock, [] { return true; });
#ifndef PPROX_VIOLATION
  pprox::LockGuard held(other);
#endif
  return 0;
}
