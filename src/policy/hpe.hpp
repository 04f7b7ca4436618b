// HPE — Hierarchical Page Eviction (Yu et al., ISPASS'19 / TCAD'19), the
// counter-based predecessor of MHPE, included both as a baseline and to
// reproduce the paper's "Inefficiency 1": HPE's per-chunk counters are
// polluted when prefetching is enabled (a whole-chunk prefetch sets the
// counter to the chunk size even though only one page was demanded), which
// breaks its regular/irregular classification.
//
// The IPDPS'20 paper describes HPE at the level of §II-C; the precise
// qualification thresholds below are our good-faith reconstruction and are
// documented as assumptions in DESIGN.md:
//  * counters count pages brought into a chunk (so prefetching pollutes
//    them, as the paper describes) plus demand touches;
//  * classification when memory first fills: the fraction of resident
//    chunks whose counter >= hpe_regular_counter decides the category —
//    >= 2/3 regular (MRU-C), <= 1/3 irregular#1 (LRU), else irregular#2;
//  * MRU-C searches from the MRU position of the old partition for the
//    first "qualified" chunk (counter >= hpe_regular_counter);
//  * regular apps adjust the MRU-C search start point using per-interval
//    wrong evictions; irregular#2 switches between MRU-C and LRU when an
//    interval records more than half of its evictions as wrong, preferring
//    the strategy that historically lasted more intervals.
#pragma once

#include "common/config.hpp"
#include "common/recent_evictions.hpp"
#include "policy/eviction_policy.hpp"

namespace uvmsim {

class HpePolicy final : public EvictionPolicy {
 public:
  enum class Category : u8 { kUnknown, kRegular, kIrregular1, kIrregular2 };
  enum class Strategy : u8 { kMruC, kLru };

  HpePolicy(ChunkChain& chain, const PolicyConfig& cfg);

  void on_fault(PageId page) override;
  void on_interval_boundary() override;
  [[nodiscard]] ChunkId select_victim() override;
  void on_chunk_evicted(const ChunkEntry& e) override;
  [[nodiscard]] bool reorder_on_touch() const override { return true; }
  [[nodiscard]] std::string name() const override { return "HPE"; }

  [[nodiscard]] Category category() const noexcept { return category_; }
  [[nodiscard]] Strategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] u32 search_skip() const noexcept { return search_skip_; }
  [[nodiscard]] u64 wrong_evictions_total() const noexcept { return wrong_total_; }

 private:
  void classify();
  [[nodiscard]] ChunkId select_mru_c() const;

  PolicyConfig cfg_;
  Category category_ = Category::kUnknown;
  Strategy strategy_ = Strategy::kMruC;
  u32 search_skip_ = 0;  ///< MRU-C search start-point adjustment

  u32 w_ = 0;                 ///< wrong evictions this interval
  u32 evictions_interval_ = 0;
  u64 mru_intervals_ = 0;     ///< intervals spent under MRU-C (irregular#2 bookkeeping)
  u64 lru_intervals_ = 0;
  u64 wrong_total_ = 0;

  RecentEvictions recent_{64};  ///< wrong-eviction detection window
};

}  // namespace uvmsim
