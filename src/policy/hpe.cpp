#include "policy/hpe.hpp"

#include <algorithm>

namespace uvmsim {

HpePolicy::HpePolicy(ChunkChain& chain, const PolicyConfig& cfg)
    : EvictionPolicy(chain), cfg_(cfg) {}

void HpePolicy::classify() {
  if (category_ != Category::kUnknown) return;
  // Judge the counter distribution over the resident chain the first time an
  // eviction is needed (= the moment GPU memory fills to capacity).
  std::size_t qualified = 0;
  for (const auto& e : chain())
    if (e.hpe_counter >= cfg_.hpe_regular_counter) ++qualified;
  const double frac =
      chain().empty() ? 0.0
                      : static_cast<double>(qualified) / static_cast<double>(chain().size());
  if (frac >= 2.0 / 3.0) {
    category_ = Category::kRegular;
    strategy_ = Strategy::kMruC;
  } else if (frac <= 1.0 / 3.0) {
    category_ = Category::kIrregular1;
    strategy_ = Strategy::kLru;
  } else {
    category_ = Category::kIrregular2;
    strategy_ = Strategy::kLru;  // irregulars start with LRU (paper §II-C)
  }
}

void HpePolicy::on_fault(PageId page) {
  const ChunkId c = chunk_of_page(page);
  if (recent_.take(c)) {
    ++w_;
    ++wrong_total_;
    record_event(recorder(), EventType::kWrongEvictionDetected, c, wrong_total_);
  }
}

void HpePolicy::on_chunk_evicted(const ChunkEntry& e) {
  ++evictions_interval_;
  recent_.push(e.id);
}

void HpePolicy::on_interval_boundary() {
  if (category_ == Category::kUnknown) {
    w_ = 0;
    evictions_interval_ = 0;
    return;
  }
  (strategy_ == Strategy::kMruC ? mru_intervals_ : lru_intervals_) += 1;

  const bool mostly_wrong = evictions_interval_ > 0 && 2 * w_ > evictions_interval_;
  switch (category_) {
    case Category::kRegular:
      // Stay with MRU-C but push the search start point deeper when this
      // interval's evictions were mostly wrong; relax it when clean.
      if (mostly_wrong)
        ++search_skip_;
      else if (w_ == 0 && search_skip_ > 0)
        --search_skip_;
      break;
    case Category::kIrregular1:
      break;  // stays with LRU
    case Category::kIrregular2:
      // Switch on a bad interval, biased toward whichever strategy has
      // historically survived more intervals.
      if (mostly_wrong) {
        if (strategy_ == Strategy::kMruC)
          strategy_ = Strategy::kLru;
        else if (mru_intervals_ >= lru_intervals_)
          strategy_ = Strategy::kMruC;
      }
      break;
    case Category::kUnknown:
      break;
  }
  w_ = 0;
  evictions_interval_ = 0;
}

ChunkId HpePolicy::select_mru_c() const {
  // Search MRU -> LRU within the old partition (touch-recency partitions —
  // HPE reorders the chain on touches) for the first qualified chunk,
  // skipping `search_skip_` qualified candidates first.
  u32 skipped = 0;
  ChunkId deepest = kInvalidChunk;
  for (auto it = chain().rbegin(); it != chain().rend(); ++it) {
    const ChunkEntry& e = *it;
    if (e.pinned()) continue;
    if (chain().partition_of(e, /*by_touch=*/true) != Partition::kOld) continue;
    deepest = e.id;
    if (e.hpe_counter < cfg_.hpe_regular_counter) continue;  // not qualified
    if (skipped == search_skip_) return e.id;
    ++skipped;
  }
  if (deepest != kInvalidChunk) return deepest;
  return lru_unpinned();  // no old-partition candidate at all
}

ChunkId HpePolicy::select_victim() {
  classify();
  return strategy_ == Strategy::kLru ? lru_unpinned() : select_mru_c();
}

}  // namespace uvmsim
