// Generic set-associative tag array with true-LRU replacement.
//
// Used for the per-SM L1 data caches, the shared L2 cache, the page walk
// cache, and (via way-count = entries) fully-associative structures. Only
// tags are modelled — the simulator cares about hit/miss timing, not data.
//
// Alongside the way array, a FlatMap tag -> line index is maintained so
// lookup/contains/invalidate are O(1) instead of a way scan (a 128-entry L1
// TLB is one fully-associative set). Replacement behaviour is untouched —
// insert still scans its set for the true-LRU victim, and the index is a
// pure accelerator (tags are unique within a cache, so index hits and scan
// hits agree by construction).
//
// invalidate of an absent tag changes no statistic and no LRU stamp, so a
// shootdown may probe any superset of the tags a cache holds and leave the
// same state. Gpu::invalidate relies on it: it probes only the SMs and line
// offsets its per-page summaries name, and Gpu::holds, the reference,
// probes every structure.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace uvmsim {

class SetAssocCache {
 public:
  /// `entries` total entries; `ways` per set (0 = fully associative).
  SetAssocCache(u32 entries, u32 ways)
      : ways_(ways == 0 ? entries : ways),
        sets_(entries / (ways == 0 ? entries : ways)),
        lines_(static_cast<std::size_t>(sets_) * ways_) {
    assert(entries > 0);
    assert(ways_ > 0 && sets_ > 0);
    assert(sets_ * ways_ == entries && "entries must be divisible by ways");
    index_.reserve(entries);
  }

  /// Look up `tag`; on hit, refresh LRU stamp. Returns true on hit.
  bool lookup(u64 tag) {
    Line* line = find(tag);
    if (line == nullptr) return false;
    line->stamp = ++tick_;
    return true;
  }

  /// Probe without updating replacement state.
  [[nodiscard]] bool contains(u64 tag) const { return index_.contains(tag); }

  /// Insert `tag`, evicting LRU within its set if needed.
  /// Returns the evicted tag, or nullopt-like kNoEviction when a free way existed.
  static constexpr u64 kNoEviction = ~u64{0};
  u64 insert(u64 tag) {
    const u64 set = set_of(tag);
    Line* victim = nullptr;
    for (u32 w = 0; w < ways_; ++w) {
      Line& l = lines_[set * ways_ + w];
      if (l.valid && l.tag == tag) {  // already present
        l.stamp = ++tick_;
        return kNoEviction;
      }
      if (!l.valid) {
        victim = &l;
        break;
      }
      if (victim == nullptr || l.stamp < victim->stamp) victim = &l;
    }
    const u64 evicted = victim->valid ? victim->tag : kNoEviction;
    if (victim->valid) index_.erase(victim->tag);
    victim->valid = true;
    victim->tag = tag;
    victim->stamp = ++tick_;
    index_.try_emplace(tag, line_index(victim));
    return evicted;
  }

  /// Remove `tag` if present (e.g. TLB shootdown on eviction). Returns true if removed.
  bool invalidate(u64 tag) {
    Line* line = find(tag);
    if (line == nullptr) return false;
    line->valid = false;
    index_.erase(tag);
    return true;
  }

  void invalidate_all() {
    for (auto& l : lines_) l.valid = false;
    index_.clear();
  }

  [[nodiscard]] u32 ways() const noexcept { return ways_; }
  [[nodiscard]] u32 sets() const noexcept { return sets_; }

  [[nodiscard]] u32 occupancy() const noexcept {
    return static_cast<u32>(index_.size());
  }

 private:
  struct Line {
    u64 tag = 0;
    u64 stamp = 0;
    bool valid = false;
  };

  [[nodiscard]] u64 set_of(u64 tag) const noexcept { return tag % sets_; }

  [[nodiscard]] u32 line_index(const Line* l) const noexcept {
    return static_cast<u32>(l - lines_.data());
  }

  Line* find(u64 tag) {
    const u32* idx = index_.find(tag);
    if (idx == nullptr) return nullptr;
    Line& l = lines_[*idx];
    assert(l.valid && l.tag == tag);
    return &l;
  }

  u32 ways_;
  u32 sets_;
  std::vector<Line> lines_;
  FlatMap<u64, u32> index_;  ///< valid tag -> index into lines_
  u64 tick_ = 0;
};

}  // namespace uvmsim
