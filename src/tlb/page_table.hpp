// Four-level radix page table over the unified virtual address space.
//
// The simulator does not store data, so a mapping is presence plus a
// physical frame number. The radix structure matters to the *walker*: each
// level contributes a node whose tag is probed in the page walk cache, so
// spatially-close pages share upper-level nodes exactly as on real x86-64.
//
// Mappings live in a FlatMap (src/common/flat_map.hpp) reserved from the
// device's frame capacity at construction — mapped pages never exceed the
// frames backing them, so the hot fault path neither rehashes nor touches
// the allocator. Only point lookups are used; iteration order does not
// exist in the API.
#pragma once

#include <cassert>
#include <cstddef>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace uvmsim {

/// Physical frame number in GPU device memory.
using FrameId = u64;
inline constexpr FrameId kInvalidFrame = ~FrameId{0};

class PageTable {
 public:
  static constexpr u32 kLevels = 4;
  static constexpr u32 kBitsPerLevel = 9;  ///< 512-entry nodes, x86-64 style

  /// Tag identifying the page-table node visited at `level` (0 = leaf/PTE
  /// level, kLevels-1 = root) during a walk for page `p`. Pages that share
  /// the high-order bits share nodes, so the walk cache captures locality.
  [[nodiscard]] static constexpr u64 node_tag(PageId p, u32 level) {
    assert(level < kLevels);
    // Shift away the bits resolved below this level; keep the level in the
    // tag so nodes from different levels never alias.
    return ((p >> (kBitsPerLevel * level)) << 2) | level;
  }

  /// Size the mapping table for `pages` simultaneously-mapped pages
  /// (normally the device's frame capacity).
  void reserve(std::size_t pages) {
    map_.reserve(pages);
    large_map_.reserve(pages / kLargePages + 1);
  }

  [[nodiscard]] bool resident(PageId p) const {
    if (map_.contains(p)) return true;
    return has_large() && large_map_.contains(large_of_page(p));
  }

  [[nodiscard]] FrameId frame_of(PageId p) const {
    const FrameId* f = map_.find(p);
    if (f != nullptr) return *f;
    if (has_large()) {
      const FrameId* base = large_map_.find(large_of_page(p));
      if (base != nullptr) return *base + page_index_in_large(p);
    }
    return kInvalidFrame;
  }

  void map(PageId p, FrameId f) {
    assert(!map_.contains(p));
    assert(!large_map_.contains(large_of_page(p)));
    map_.try_emplace(p, f);
  }

  /// Remove the mapping; returns the frame that backed it. Pages covered by
  /// a large mapping must be demoted (splintered) before unmap.
  FrameId unmap(PageId p) {
    FrameId f = kInvalidFrame;
    [[maybe_unused]] const bool present = map_.take(p, f);
    assert(present);
    return f;
  }

  // --- 2 MB large mappings (large-pages mode only; docs/memory.md) ---------
  // A large mapping replaces the kLargePages individual PTEs of one aligned
  // region with a single leaf at radix level 1 (a 9-bit node maps exactly
  // 2 MB), backed by a physically contiguous, kLargePages-aligned frame run.

  [[nodiscard]] bool has_large() const { return large_map_.size() != 0; }

  [[nodiscard]] bool large_mapped(LargeId l) const {
    return has_large() && large_map_.contains(l);
  }

  /// Coalesce: all kLargePages pages of `l` must be individually mapped to
  /// frames `base + index`; the per-page PTEs are folded into one large PTE.
  void promote(LargeId l, FrameId base) {
    assert(!large_map_.contains(l));
    assert(base % kLargePages == 0);
    const PageId first = first_page_of_large(l);
    for (u32 i = 0; i < kLargePages; ++i) {
      FrameId f = kInvalidFrame;
      [[maybe_unused]] const bool present = map_.take(first + i, f);
      assert(present && f == base + i);
    }
    large_map_.try_emplace(l, base);
  }

  /// Splinter: expand the large PTE back into kLargePages per-page PTEs.
  /// Translations are unchanged (the frames stay put).
  void demote(LargeId l) {
    FrameId base = kInvalidFrame;
    [[maybe_unused]] const bool present = large_map_.take(l, base);
    assert(present);
    const PageId first = first_page_of_large(l);
    for (u32 i = 0; i < kLargePages; ++i) map_.try_emplace(first + i, base + i);
  }

  /// Drop a whole large mapping (large-frame eviction); returns the base.
  FrameId unmap_large(LargeId l) {
    FrameId base = kInvalidFrame;
    [[maybe_unused]] const bool present = large_map_.take(l, base);
    assert(present);
    return base;
  }

  [[nodiscard]] std::size_t mapped_pages() const {
    return map_.size() + large_map_.size() * kLargePages;
  }

  // --- Simulator-perf observability (RunResult.sim / --sim-stats) ----------
  [[nodiscard]] std::size_t table_capacity() const { return map_.capacity(); }
  [[nodiscard]] double load_factor() const { return map_.load_factor(); }

 private:
  FlatMap<PageId, FrameId> map_;
  FlatMap<LargeId, FrameId> large_map_;  ///< region -> kLargePages-aligned base
};

}  // namespace uvmsim
