// RecentEvictions: the bounded FIFO of recently evicted chunks. HPE and
// MHPE detect wrong evictions with it: a chunk that faults again while it
// is still in the FIFO was evicted wrongly. The phase classifier counts
// refaults on it (obs/phase_classifier.hpp).
//
// The FIFO is a multiset: a chunk can be evicted, refetched and evicted
// again while its first entry is still ageing out. A refault takes one
// instance of the chunk and leaves the FIFO as it is; each entry that ages
// out takes one more instance of its chunk, if one is left. contains()
// checks membership and takes nothing.
#pragma once

#include <cstddef>
#include <deque>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace uvmsim {

class RecentEvictions {
 public:
  explicit RecentEvictions(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }

  /// Record an eviction of `c`, ageing out the oldest entries past capacity.
  void push(ChunkId c) {
    fifo_.push_back(c);
    ++live_[c];
    while (fifo_.size() > capacity_) {
      take(fifo_.front());
      fifo_.pop_front();
    }
  }

  /// Was `c` evicted recently (an instance is left)?
  [[nodiscard]] bool contains(ChunkId c) const { return live_.find(c) != nullptr; }

  /// `c` faulted again: true, and one instance taken, if it was evicted
  /// recently.
  bool take(ChunkId c) {
    u32* n = live_.find(c);
    if (n == nullptr) return false;
    if (--*n == 0) live_.erase(c);
    return true;
  }

 private:
  std::deque<ChunkId> fifo_;
  FlatMap<ChunkId, u32> live_;  ///< chunk -> live FIFO occurrences
  std::size_t capacity_;
};

}  // namespace uvmsim
