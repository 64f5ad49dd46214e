// PPROX-LAYER: tooling
//
// Planted lock-order inversion (a->b, then b->a in a later thread). It never
// deadlocks, so it exits 0 unless TSan reports the inversion.
#include "common/sync.hpp"

int main() {
  pprox::Mutex a;
  pprox::Mutex b;
  pprox::DetThread([&] {
    pprox::LockGuard la(a);
    pprox::LockGuard lb(b);
  }).join();
  pprox::DetThread([&] {
    pprox::LockGuard lb(b);
    pprox::LockGuard la(a);
  }).join();
  return 0;
}
