// PPROX-LAYER: shared
//
// Reusable scratch memory for batched enclave transitions (ROADMAP item 3).
// A BatchArena is a bump allocator over one pre-reserved region: the batch
// entry points (UaLogic::transform_batch, IaLogic::transform_batch,
// IaLogic::seal_batch) stage identifier blocks and keystreams in it instead
// of allocating per message, and the host wipes the whole high-water region
// after every batch (wipe_and_reset) so no identifier plaintext outlives
// the ecall that produced it.
//
// Views returned by alloc() stay valid until wipe_and_reset(): an overflow
// allocation (batch larger than the reservation) comes from a fresh chunk
// rather than growing the main region, so earlier views are never
// invalidated mid-batch.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.hpp"

namespace pprox {

class BatchArena {
 public:
  /// Reserves `capacity` bytes up front; alloc() beyond it falls back to
  /// overflow chunks (cold path).
  explicit BatchArena(std::size_t capacity);

  BatchArena(const BatchArena&) = delete;
  BatchArena& operator=(const BatchArena&) = delete;
  ~BatchArena();

  /// Returns a zero-initialized view of `n` bytes, valid until the next
  /// wipe_and_reset().
  MutByteView alloc(std::size_t n);

  /// Zeroizes every byte handed out since the last reset and makes the full
  /// reservation available again. Call after the batch's results have been
  /// copied out — message plaintext must not survive the transition.
  void wipe_and_reset();

  std::size_t capacity() const { return storage_.size(); }
  std::size_t used() const { return used_; }

 private:
  Bytes storage_;
  std::size_t used_ = 0;
  std::vector<Bytes> overflow_;
};

}  // namespace pprox
