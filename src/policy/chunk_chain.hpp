// The chunk chain (paper §II-C, Fig 2): the ordered list of resident chunks
// plus per-chunk metadata, shared by every eviction policy.
//
// Orientation: the list HEAD is the LRU position, the TAIL is the MRU
// position. New chunks are normally inserted at the tail; MHPE reinserts
// wrongly-evicted chunks at the head (paper §IV-B).
//
// Execution is partitioned into intervals. Following §IV-B ("four chunks
// are prefetched in one interval" with a 64-fault interval and 16-page
// chunks), the interval counter advances per page *migrated in* — with
// whole-chunk prefetching, 64 migrated pages = 4 chunks per interval.
// Partitions (Fig 2) are derived from per-entry interval stamps:
//   new    — stamped in the current interval,
//   middle — stamped in the previous interval,
//   old    — stamped earlier.
//
// Storage: a slab-linked list. Entries live in one std::vector<Node> slab
// and are linked by u32 prev/next indices; freed slots go on a free list
// and are reused by later inserts, so a steady-state thrash loop (insert at
// tail, erase at head) runs allocation-free in reused cache-warm slots. A
// FlatMap<ChunkId, slot> replaces the old unordered_map<ChunkId, iterator>.
// List order, head-insert stamping and splice (move_to_tail) semantics are
// identical to the std::list implementation; only the memory layout moved.
//
// Invalidation contract: erase() invalidates iterators/references to the
// erased entry only, but insert() may grow the slab and invalidate ALL
// entry references (not iterators — they hold indices). No simulator code
// holds a ChunkEntry reference across an insert (audited; pinned by
// tests/policy/chunk_chain_test.cpp churn tests).
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "common/flat_map.hpp"
#include "common/touch_bits.hpp"
#include "common/types.hpp"

namespace uvmsim {

struct ChunkEntry {
  ChunkId id = kInvalidChunk;
  TouchBits touched;    ///< pages demanded by the GPU (access-bit view)
  TouchBits resident;   ///< pages physically present (demanded or prefetched)
  u32 hpe_counter = 0;  ///< HPE's per-chunk touch counter (page touches)
  u64 arrival_interval = 0;     ///< interval when the chunk was migrated in
  u64 last_touch_interval = 0;  ///< interval of the most recent demand touch
  u32 pin_count = 0;            ///< in-flight migrations targeting this chunk
  /// Chunk arrived by eviction spill from a peer device (src/fabric). A
  /// spilled chunk never re-spills (it writes back to host when evicted
  /// again) and its synthetic touch state stays out of the pattern buffer.
  bool spilled = false;

  /// Pinned chunks have pages arriving and must not be evicted.
  [[nodiscard]] bool pinned() const { return pin_count > 0; }

  /// The paper's "untouch level" of this chunk if evicted now: resident
  /// pages that were never demanded.
  [[nodiscard]] u32 untouch_level() const {
    return (resident & ~touched).count();
  }
};

enum class Partition : u8 { kOld, kMiddle, kNew };

class ChunkChain {
  static constexpr u32 kNil = ~u32{0};

  struct Node {
    ChunkEntry entry;
    u32 prev = kNil;
    u32 next = kNil;
  };

  template <bool Const, bool Reverse>
  class IterT {
    using ChainPtr = std::conditional_t<Const, const ChunkChain*, ChunkChain*>;

   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = ChunkEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const ChunkEntry*, ChunkEntry*>;
    using reference = std::conditional_t<Const, const ChunkEntry&, ChunkEntry&>;

    IterT() = default;
    IterT(ChainPtr chain, u32 idx) : chain_(chain), idx_(idx) {}
    /// const_iterator is constructible from iterator (std::list parity).
    template <bool C = Const, class = std::enable_if_t<C>>
    IterT(const IterT<false, Reverse>& o)  // NOLINT(google-explicit-constructor)
        : chain_(o.chain_), idx_(o.idx_) {}

    [[nodiscard]] reference operator*() const {
      return chain_->slab_[idx_].entry;
    }
    [[nodiscard]] pointer operator->() const {
      return &chain_->slab_[idx_].entry;
    }

    IterT& operator++() {
      idx_ = Reverse ? chain_->slab_[idx_].prev : chain_->slab_[idx_].next;
      return *this;
    }
    IterT operator++(int) {
      IterT tmp = *this;
      ++*this;
      return tmp;
    }
    IterT& operator--() {
      if (idx_ == kNil) {
        idx_ = Reverse ? chain_->head_ : chain_->tail_;
      } else {
        idx_ = Reverse ? chain_->slab_[idx_].next : chain_->slab_[idx_].prev;
      }
      return *this;
    }
    IterT operator--(int) {
      IterT tmp = *this;
      --*this;
      return tmp;
    }

    [[nodiscard]] bool operator==(const IterT& o) const { return idx_ == o.idx_; }
    [[nodiscard]] bool operator!=(const IterT& o) const { return idx_ != o.idx_; }

   private:
    friend class ChunkChain;
    template <bool, bool>
    friend class IterT;
    ChainPtr chain_ = nullptr;
    u32 idx_ = kNil;
  };

 public:
  using Iter = IterT<false, false>;
  using ConstIter = IterT<true, false>;
  using ReverseIter = IterT<false, true>;
  using ConstReverseIter = IterT<true, true>;

  explicit ChunkChain(u32 interval_pages = 64) : interval_pages_(interval_pages) {}

  // Copying would leave index_ pointing into the source's slab. Moves are
  // plain vector/map moves — slot indices stay valid in the destination
  // (unlike the old iterator-based index, which made move-assignment during
  // ChainSet teardown a latent hazard).
  ChunkChain(const ChunkChain&) = delete;
  ChunkChain& operator=(const ChunkChain&) = delete;
  ChunkChain(ChunkChain&&) = default;
  ChunkChain& operator=(ChunkChain&&) = default;

  /// Pre-size the slab and index for `chunks` resident chunks (typically the
  /// device's frame capacity in chunks) so steady state never reallocates.
  void reserve(std::size_t chunks) {
    slab_.reserve(chunks);
    index_.reserve(chunks);
  }

  /// Insert a new chunk. `at_head` places it at the LRU position (used for
  /// wrongly-evicted chunks under MHPE); default is the MRU tail.
  ///
  /// Head inserts are stamped as if they arrived two intervals ago — the
  /// oldest stamp partition_of() distinguishes — not with the current
  /// interval. Stamping them "current" would file a chunk sitting at the LRU
  /// head into the `new` partition, breaking Fig 2's invariant that
  /// partitions are contiguous chain segments (old at head, new at tail) and
  /// hiding the reinserted chunk from MHPE's old-partition MRU search.
  ChunkEntry& insert(ChunkId id, bool at_head = false) {
    assert(!contains(id));
    const u32 slot = acquire_slot();
    Node& node = slab_[slot];
    node.entry = ChunkEntry{};
    node.entry.id = id;
    const u64 stamp =
        at_head ? (current_interval_ >= 2 ? current_interval_ - 2 : 0)
                : current_interval_;
    node.entry.arrival_interval = stamp;
    node.entry.last_touch_interval = stamp;
    if (at_head) {
      link_head(slot);
    } else {
      link_tail(slot);
    }
    index_.try_emplace(id, slot);
    ++size_;
    return node.entry;
  }

  [[nodiscard]] bool contains(ChunkId id) const { return index_.contains(id); }

  ChunkEntry& entry(ChunkId id) {
    const u32* slot = index_.find(id);
    assert(slot != nullptr);
    return slab_[*slot].entry;
  }
  [[nodiscard]] const ChunkEntry& entry(ChunkId id) const {
    const u32* slot = index_.find(id);
    assert(slot != nullptr);
    return slab_[*slot].entry;
  }
  [[nodiscard]] ChunkEntry* find(ChunkId id) {
    const u32* slot = index_.find(id);
    return slot == nullptr ? nullptr : &slab_[*slot].entry;
  }

  /// Remove a chunk (after eviction) and return its final metadata. The
  /// freed slot goes to the free list for reuse by a later insert.
  ChunkEntry erase(ChunkId id) {
    const u32* found = index_.find(id);
    assert(found != nullptr);
    const u32 slot = *found;
    ChunkEntry out = std::move(slab_[slot].entry);
    unlink(slot);
    release_slot(slot);
    index_.erase(id);
    --size_;
    return out;
  }

  /// Move a chunk to the MRU tail (HPE-style recency update on touch).
  /// Pure index relink — the entry itself does not move in memory.
  void move_to_tail(ChunkId id) {
    const u32* found = index_.find(id);
    assert(found != nullptr);
    const u32 slot = *found;
    if (slot == tail_) return;
    unlink(slot);
    link_tail(slot);
  }

  /// Advance the interval clock by `n` migrated pages. Returns the number of
  /// interval boundaries crossed (0 when none): a batch larger than
  /// `interval_pages_` crosses several at once, and callers that fire
  /// per-interval work (MHPE's threshold checks, partition restamping) must
  /// run it once per boundary, not once per batch.
  u64 note_pages_migrated(u64 n) {
    pages_migrated_ += n;
    const u64 new_interval = pages_migrated_ / interval_pages_;
    const u64 crossed = new_interval - current_interval_;
    current_interval_ = new_interval;
    return crossed;
  }

  [[nodiscard]] u64 current_interval() const noexcept { return current_interval_; }
  [[nodiscard]] u64 pages_migrated() const noexcept { return pages_migrated_; }

  /// Which partition (Fig 2) an entry falls in, judged by its stamp.
  [[nodiscard]] Partition partition_of(const ChunkEntry& e, bool by_touch) const {
    const u64 stamp = by_touch ? e.last_touch_interval : e.arrival_interval;
    if (stamp >= current_interval_) return Partition::kNew;
    if (stamp + 1 == current_interval_) return Partition::kMiddle;
    return Partition::kOld;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // --- Simulator-perf observability (RunResult.sim / --sim-stats) ----------
  /// Allocated slab slots (live + free-listed).
  [[nodiscard]] std::size_t slab_capacity() const noexcept { return slab_.size(); }
  /// Load factor of the ChunkId -> slot index.
  [[nodiscard]] double index_load_factor() const noexcept {
    return index_.load_factor();
  }

  // LRU-first iteration (head -> tail).
  [[nodiscard]] Iter begin() { return {this, head_}; }
  [[nodiscard]] Iter end() { return {this, kNil}; }
  [[nodiscard]] ConstIter begin() const { return {this, head_}; }
  [[nodiscard]] ConstIter end() const { return {this, kNil}; }
  // MRU-first iteration (tail -> head).
  [[nodiscard]] ReverseIter rbegin() { return {this, tail_}; }
  [[nodiscard]] ReverseIter rend() { return {this, kNil}; }
  [[nodiscard]] ConstReverseIter rbegin() const { return {this, tail_}; }
  [[nodiscard]] ConstReverseIter rend() const { return {this, kNil}; }

 private:
  [[nodiscard]] u32 acquire_slot() {
    if (free_head_ != kNil) {
      const u32 slot = free_head_;
      free_head_ = slab_[slot].next;
      return slot;
    }
    slab_.emplace_back();
    return static_cast<u32>(slab_.size() - 1);
  }

  void release_slot(u32 slot) {
    slab_[slot].entry = ChunkEntry{};  // drop stale metadata in the free slot
    slab_[slot].prev = kNil;
    slab_[slot].next = free_head_;
    free_head_ = slot;
  }

  void link_head(u32 slot) {
    Node& node = slab_[slot];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil) {
      slab_[head_].prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  }

  void link_tail(u32 slot) {
    Node& node = slab_[slot];
    node.next = kNil;
    node.prev = tail_;
    if (tail_ != kNil) {
      slab_[tail_].next = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
  }

  void unlink(u32 slot) {
    Node& node = slab_[slot];
    if (node.prev != kNil) {
      slab_[node.prev].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNil) {
      slab_[node.next].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
    node.prev = kNil;
    node.next = kNil;
  }

  std::vector<Node> slab_;
  FlatMap<ChunkId, u32> index_;
  u32 head_ = kNil;
  u32 tail_ = kNil;
  u32 free_head_ = kNil;
  std::size_t size_ = 0;
  u32 interval_pages_;
  u64 pages_migrated_ = 0;
  u64 current_interval_ = 0;
};

}  // namespace uvmsim
