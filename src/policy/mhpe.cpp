#include "policy/mhpe.hpp"

#include <algorithm>
#include <cassert>

namespace uvmsim {

MhpePolicy::MhpePolicy(ChunkChain& chain, const PolicyConfig& cfg)
    : EvictionPolicy(chain), cfg_(cfg) {}

u32 MhpePolicy::untouch_bucket(u32 u1, u32 t1) {
  // Five ranges over [0, t1-1]; with t1 = 32 these are the paper's
  // [0-3] [4-10] [11-17] [18-24] [25-31].
  if (u1 >= t1) return 4;
  const u32 first = t1 / 8;  // size of the lowest bucket: 4 for t1 = 32
  if (u1 < first) return 0;
  const u32 span = (t1 - first + 3) / 4;  // remaining four buckets: 7 for t1 = 32
  return std::min(1 + (u1 - first) / span, 4u);
}

void MhpePolicy::lazy_init() {
  if (initialised_) return;
  initialised_ = true;
  // Initial forward distance = clamp(chain_length / divisor, fd_min, fd_max)
  // (paper: divide chain length by 100, clamp to [2, 8]).
  const auto fd = static_cast<u32>(chain().size() / cfg_.fd_chain_divisor);
  forward_distance_ = std::clamp(fd, cfg_.fd_min, cfg_.fd_max);
  // Wrong-eviction buffer length: max(min_entries, min_entries * chain/64)
  // — "divides the chunk chain length by 64 and multiplies the result by 8",
  // minimum 8 (two intervals' worth of evicted chunks).
  const std::size_t scaled =
      (chain().size() / cfg_.wrong_evict_chain_divisor) * cfg_.wrong_evict_min_entries;
  wrong_evicted_.set_capacity(
      std::max<std::size_t>(cfg_.wrong_evict_min_entries, scaled));
}

void MhpePolicy::on_fault(PageId page) {
  const ChunkId c = chunk_of_page(page);
  if (wrong_evicted_.take(c)) {
    // A recently evicted chunk faulted again: that eviction was wrong.
    ++w_;
    ++wrong_total_;
    reinsert_at_head_.insert(c);
    record_event(recorder(), EventType::kWrongEvictionDetected, c, wrong_total_);
  }
}

void MhpePolicy::on_chunk_evicted(const ChunkEntry& e) {
  lazy_init();
  ++evictions_;
  head_protected_cur_.erase(e.id);
  head_protected_prev_.erase(e.id);
  const u32 untouch = e.untouch_level();
  u1_ += untouch;
  if (intervals_seen_ < 4) u2_ += untouch;

  wrong_evicted_.push(e.id);
}

void MhpePolicy::on_interval_boundary() {
  if (!initialised_) return;  // no evictions yet -> nothing to adapt
  ++intervals_seen_;
  untouch_history_.push_back(u1_);

  // Age the reinsert protection: chunks brought back last interval stay
  // shielded for this one, then fend for themselves.
  head_protected_prev_ = std::move(head_protected_cur_);
  head_protected_cur_.clear();

  if (strategy_ == Strategy::kMru) {
    // Algorithm 1 line 11: U1 >= T1 (any interval), or U2 >= T2 checked once
    // at the end of the fourth interval. The switch is one-way.
    const bool u2_check = (intervals_seen_ == 4) && (u2_ >= cfg_.t2_untouch_first4);
    if (u1_ >= cfg_.t1_untouch || u2_check) {
      strategy_ = Strategy::kLru;
    } else if (forward_distance_ <= cfg_.t3_forward_limit) {
      // Lines 14-15: grow the forward distance by the larger of the untouch
      // bucket and the wrong-eviction count (max, not sum, to avoid
      // over-adjustment).
      forward_distance_ += std::max(untouch_bucket(u1_, cfg_.t1_untouch), w_);
    }
  }
  u1_ = 0;
  w_ = 0;
}

ChunkId MhpePolicy::select_mru() const {
  // Walk MRU -> LRU over unpinned chunks of the OLD partition (arrival-order
  // partitions: MHPE never reorders the chain), skipping `forward_distance_`
  // candidates past the partition's MRU position. If the old partition has
  // too few chunks the deepest one seen is used; if it is empty the walk is
  // retried over the whole chain.
  const auto pick = [&](bool old_only) -> ChunkId {
    u32 skipped = 0;
    ChunkId deepest = kInvalidChunk;
    for (auto it = chain().rbegin(); it != chain().rend(); ++it) {
      const ChunkEntry& e = *it;
      if (e.pinned()) continue;
      if (old_only &&
          chain().partition_of(e, /*by_touch=*/false) != Partition::kOld)
        continue;
      // Freshly reinserted wrongly-evicted chunks are off limits to the MRU
      // search (§IV-B); the whole-chain fallback may still take them so the
      // policy can always produce a victim.
      if (old_only && (head_protected_cur_.contains(e.id) ||
                       head_protected_prev_.contains(e.id)))
        continue;
      deepest = e.id;
      if (skipped == forward_distance_) return e.id;
      ++skipped;
    }
    return deepest;  // fewer than fd+1 candidates: evict the LRU-most one
  };

  ChunkId victim = pick(/*old_only=*/true);
  if (victim == kInvalidChunk) victim = pick(/*old_only=*/false);
  return victim;
}

ChunkId MhpePolicy::select_victim() {
  lazy_init();
  return strategy_ == Strategy::kLru ? lru_unpinned() : select_mru();
}

InsertPosition MhpePolicy::insert_position(ChunkId chunk) {
  // Wrongly-evicted chunks re-enter at the chain head (LRU position) so the
  // MRU search cannot immediately re-victimise them (paper §IV-B). The head
  // stamp files them into the old partition (Fig 2 contiguity), so the
  // protection window below is what actually keeps the MRU search off them.
  if (reinsert_at_head_.erase(chunk) > 0) {
    head_protected_cur_.insert(chunk);
    return InsertPosition::kHead;
  }
  return InsertPosition::kTail;
}

}  // namespace uvmsim
