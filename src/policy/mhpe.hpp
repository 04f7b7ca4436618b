// MHPE — Modified Hierarchical Page Eviction (paper §IV-B, Algorithm 1).
//
// MHPE is HPE rebuilt to coexist with page prefetching:
//  * no per-chunk touch counters — classification uses the *untouch level*
//    (untouched pages) of evicted chunks instead, so prefetched pages do not
//    pollute the signal;
//  * MRU-C therefore devolves to plain MRU (cheaper search);
//  * the chain is kept in pure arrival order (one update per chunk);
//  * the eviction strategy starts as MRU and may switch — one way — to LRU
//    when per-interval untouch level U1 >= T1, or when the cumulative
//    untouch level of the first four intervals U2 >= T2;
//  * the MRU search point is "forwarded" by a per-application distance,
//    initialised to clamp(chain_length / 100, 2, 8) and grown each interval
//    by max(untouch-bucket(U1), wrong evictions W) while it is <= T3;
//  * wrong evictions are detected with a small buffer of recently evicted
//    chunks; a faulting chunk found there counts as a wrong eviction and is
//    reinserted at the chain HEAD (LRU position) when re-migrated, so it is
//    not immediately re-victimised by the MRU search.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/recent_evictions.hpp"
#include "policy/eviction_policy.hpp"

namespace uvmsim {

class MhpePolicy final : public EvictionPolicy {
 public:
  enum class Strategy : u8 { kMru, kLru };

  MhpePolicy(ChunkChain& chain, const PolicyConfig& cfg);

  void on_fault(PageId page) override;
  void on_interval_boundary() override;
  [[nodiscard]] ChunkId select_victim() override;
  void on_chunk_evicted(const ChunkEntry& e) override;
  [[nodiscard]] InsertPosition insert_position(ChunkId chunk) override;
  [[nodiscard]] bool reorder_on_touch() const override { return false; }
  [[nodiscard]] std::string name() const override { return "MHPE"; }

  // --- Introspection (sensitivity studies, Tables III/IV) -------------------
  [[nodiscard]] Strategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] u32 forward_distance() const noexcept { return forward_distance_; }
  [[nodiscard]] bool switched_to_lru() const noexcept { return strategy_ == Strategy::kLru; }
  [[nodiscard]] u64 evictions() const noexcept { return evictions_; }
  [[nodiscard]] u64 wrong_evictions_total() const noexcept { return wrong_total_; }
  [[nodiscard]] std::size_t wrong_buffer_capacity() const noexcept {
    return wrong_evicted_.capacity();
  }
  /// Per-interval total untouch level U1, in interval order since evictions
  /// began (drives Table III / Table IV).
  [[nodiscard]] const std::vector<u32>& interval_untouch_history() const noexcept {
    return untouch_history_;
  }

  /// Maps U1 (0..T1-1) onto the five adjustment buckets
  /// [0-3] [4-10] [11-17] [18-24] [25-31] -> 0..4 (paper §VI-A).
  [[nodiscard]] static u32 untouch_bucket(u32 u1, u32 t1);

 private:
  void lazy_init();
  [[nodiscard]] ChunkId select_mru() const;

  PolicyConfig cfg_;
  Strategy strategy_ = Strategy::kMru;
  bool initialised_ = false;
  u32 forward_distance_ = 0;

  // Interval accumulators (Algorithm 1's U1 / U2 / W).
  u32 u1_ = 0;           ///< untouch level in the current interval
  u32 u2_ = 0;           ///< untouch level across the first four intervals
  u32 w_ = 0;            ///< wrong evictions in the current interval
  u64 intervals_seen_ = 0;

  // Wrong-eviction detection: recently evicted chunks, sized at the first
  // eviction (lazy_init).
  RecentEvictions wrong_evicted_;
  FlatSet<ChunkId> reinsert_at_head_;

  // §IV-B's reinsert-at-head guarantee ("not immediately re-victimised by
  // the MRU search") made explicit: reinserted chunks are exempt from the
  // old-partition MRU search for the remainder of the current interval and
  // the next one. The head position alone is not enough — when the old
  // partition is shorter than the forward distance, select_mru's fallback
  // takes the LRU-most candidate, which would be exactly the chunk just
  // brought back. Two sets, aged at interval boundaries; never iterated, so
  // hashed lookup keeps determinism.
  FlatSet<ChunkId> head_protected_cur_;
  FlatSet<ChunkId> head_protected_prev_;

  u64 evictions_ = 0;
  u64 wrong_total_ = 0;
  std::vector<u32> untouch_history_;
};

}  // namespace uvmsim
