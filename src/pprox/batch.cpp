// PPROX-LAYER: shared
#include "pprox/batch.hpp"

#include <algorithm>
#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds

namespace pprox {

BatchArena::BatchArena(std::size_t capacity) : storage_(capacity, 0) {}

BatchArena::~BatchArena() { wipe_and_reset(); }

MutByteView BatchArena::alloc(std::size_t n) {
  if (used_ + n <= storage_.size()) {
    MutByteView view(storage_.data() + used_, n);
    ASAN_UNPOISON_MEMORY_REGION(view.data(), n);
    used_ += n;
    std::fill(view.begin(), view.end(), std::uint8_t{0});
    return view;
  }
  // Overflow chunk: only taken when a batch outgrows the construction-time
  // reservation (scratch is sized for S full responses, so this is a sizing
  // bug surfacing cold, not steady state).
  overflow_.emplace_back(n, 0);
  return MutByteView(overflow_.back());
}

void BatchArena::wipe_and_reset() {
  secure_wipe(MutByteView(storage_.data(), used_));
  // Under ASan a view read after the reset aborts (use-after-poison).
  ASAN_POISON_MEMORY_REGION(storage_.data(), used_);
  used_ = 0;
  for (Bytes& chunk : overflow_) secure_wipe(chunk);
  overflow_.clear();
}

}  // namespace pprox
