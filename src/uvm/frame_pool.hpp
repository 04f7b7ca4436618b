// FramePool: physical-frame accounting under an oversubscription cap.
//
// The pool hands out frame numbers in two tiers — recycled frames LIFO,
// then never-used frames in ascending order — and tracks the free-frame
// count that admission/eviction decisions key off. Reservation (accounting
// at fault-service time) is deliberately split from allocation (frame
// numbers handed out at migration-completion time): the driver reserves
// room the moment a plan is admitted so concurrent services cannot
// over-commit, but the concrete frames are bound only when pages land.
//
// The pool also owns the "memory full" definition. Pressure is *live*:
// a whole-chunk migration no longer fits within the free frames, plus —
// once eviction has begun — the pre-eviction watermark's headroom, which
// the driver keeps free on purpose and which therefore must not read as
// available. Unlike the old `chunks_evicted > 0` rule, pressure clears if
// frames ever free back up past that threshold.
// Multi-tenant modes (tenancy/tenant.hpp): built with a TenantTable the
// pool also tracks per-tenant frame usage and answers the *admissible*
// frame count — how many of the free frames a given tenant may take right
// now. Partitioned mode caps admission at the tenant's static quota; quota
// mode admits freely (borrowing) and relies on over-quota-first eviction to
// restore guarantees; shared mode (and single-tenant runs, which have no
// table) is the unchanged global accounting.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"  // FrameId

namespace uvmsim {

class FramePool {
 public:
  /// With `tenants` set the pool updates per-tenant used_frames on
  /// reserve/release and enforces partitioned-mode quotas at admission
  /// time. `large_frames` switches allocation to 2 MB slot binding (below).
  FramePool(u64 capacity_pages, u64 watermark_pages,
            TenantTable* tenants = nullptr, TenantMode mode = TenantMode::kShared,
            bool large_frames = false)
      : capacity_(capacity_pages),
        watermark_pages_(watermark_pages),
        free_frames_(capacity_pages),
        tenants_(tenants),
        mode_(mode),
        large_mode_(large_frames) {
    assert(capacity_ > 0);
    free_bit_.assign(capacity_, 1);
    if (!large_mode_) return;
    region_slot_.reserve(capacity_ / kLargePages + 1);
    slot_free_.assign(capacity_ / kLargePages, kLargePages);
    slot_region_.assign(capacity_ / kLargePages, kInvalidLarge);
  }

  [[nodiscard]] u64 capacity() const noexcept { return capacity_; }
  [[nodiscard]] u64 free_frames() const noexcept { return free_frames_; }
  [[nodiscard]] u64 watermark_pages() const noexcept { return watermark_pages_; }
  /// Has any frame ever been released by an eviction?
  [[nodiscard]] bool evictions_seen() const noexcept { return evictions_seen_; }

  /// "Memory full" in the paper's sense — oversubscription pressure right
  /// now: a whole-chunk migration does not fit in the free frames beyond
  /// the pre-eviction headroom (counted only once eviction has begun;
  /// before that the watermark is not yet being maintained).
  [[nodiscard]] bool under_pressure() const noexcept {
    return free_frames_ < kChunkPages + (evictions_seen_ ? watermark_pages_ : 0);
  }

  // --- Multi-tenant accounting ---------------------------------------------
  [[nodiscard]] TenantMode tenant_mode() const noexcept { return mode_; }

  /// How many frames tenant `t` may take right now. Shared/quota modes (and
  /// tenancy off): every free frame. Partitioned: free frames up to the
  /// tenant's remaining quota headroom.
  [[nodiscard]] u64 admissible_frames(TenantId t) const noexcept {
    if (tenants_ == nullptr || t == kNoTenant ||
        mode_ != TenantMode::kPartitioned)
      return free_frames_;
    return std::min(free_frames_, tenants_->quota_headroom(t));
  }

  /// Tenant-scoped pressure: in partitioned mode a tenant is "full" when a
  /// whole-chunk migration no longer fits in its *admissible* frames; in
  /// the borrowing modes pressure is the global condition.
  [[nodiscard]] bool under_pressure(TenantId t) const noexcept {
    if (tenants_ == nullptr || t == kNoTenant ||
        mode_ != TenantMode::kPartitioned)
      return under_pressure();
    return admissible_frames(t) <
           kChunkPages + (evictions_seen_ ? watermark_pages_ : 0);
  }

  /// Account for `n` pages admitted into migration (frames bound later).
  void reserve(u64 n, TenantId t = kNoTenant) {
    assert(free_frames_ >= n);
    free_frames_ -= n;
    if (tenants_ != nullptr) tenants_->note_reserved(t, n);
  }

  /// Bind one frame for a landing page (accounting already done by
  /// reserve()): recycled frames LIFO first, then fresh frames in order.
  [[nodiscard]] FrameId allocate() { return take(any_free_frame()); }

  /// Return an evicted page's frame to the pool. `owner` is the tenant the
  /// frame is taken from (the evicted chunk's owner, not the initiator).
  void release(FrameId f, TenantId owner = kNoTenant) {
    recycled_.push_back(f);
    ++free_frames_;
    evictions_seen_ = true;
    assert(!free_bit_[f]);
    free_bit_[f] = 1;
    const u64 s = f >> kLargePageShift;
    if (s < slot_free_.size()) ++slot_free_[s];
    if (tenants_ != nullptr) tenants_->note_released(owner, 1);
  }

  // --- Large-frame (2 MB) slot allocation — Mosaic's CoCoA ------------------
  // In large mode the capacity is carved into kLargePages-aligned *slots*.
  // Each virtual 2 MB region binds to one slot on its first allocation, and
  // later pages of the region prefer the frame at slot_base + offset — so a
  // fully-resident region naturally ends up physically contiguous and
  // coalescing is a pure metadata flip (no data movement). The binding is a
  // preference, never a reservation: when the preferred frame is taken, the
  // page falls back to any free frame, exactly preserving the pool's
  // accounting guarantees. Never enabled in default runs.

  [[nodiscard]] bool large_mode() const noexcept { return large_mode_; }
  [[nodiscard]] u64 large_slots() const noexcept {
    return large_mode_ ? capacity_ / kLargePages : 0;
  }

  /// Bind one frame for `page` landing: preferred-slot frame if free,
  /// otherwise any free frame. Equivalent to allocate() when large mode is
  /// off.
  [[nodiscard]] FrameId allocate_for(PageId page) {
    if (!large_mode_) return allocate();
    const LargeId region = large_of_page(page);
    const u32 offset = page_index_in_large(page);
    if (const u64* slot = region_slot_.find(region); slot != nullptr) {
      const FrameId want = *slot * kLargePages + offset;
      if (free_bit_[want]) return take(want);
      return take(any_free_frame());
    }
    // First allocation of the region: bind the lowest *unbound* slot whose
    // frame at this offset is free — one slot serves one region, or slot
    // interiors would interleave and nothing could ever coalesce. Under
    // churn, a bound slot whose region was entirely evicted (every frame
    // free again) is reclaimed for the newcomer.
    u64 chosen = large_slots();
    for (u64 s = 0; s < large_slots(); ++s) {
      if (slot_region_[s] == kInvalidLarge &&
          free_bit_[s * kLargePages + offset]) {
        chosen = s;
        break;
      }
    }
    if (chosen == large_slots()) {
      for (u64 s = 0; s < large_slots(); ++s) {
        if (slot_region_[s] != kInvalidLarge && slot_free_[s] == kLargePages) {
          region_slot_.erase(slot_region_[s]);
          chosen = s;
          break;
        }
      }
    }
    if (chosen < large_slots()) {
      region_slot_.try_emplace(region, chosen);
      slot_region_[chosen] = region;
      return take(chosen * kLargePages + offset);
    }
    // More live regions than slots (oversubscription): unbound regions take
    // whatever is free and simply stay small.
    return take(any_free_frame());
  }

  /// Is frame `f` currently free? (used by tests)
  [[nodiscard]] bool frame_free(FrameId f) const {
    assert(f < capacity_);
    return free_bit_[f] != 0;
  }

 private:
  [[nodiscard]] FrameId take(FrameId f) {
    assert(free_bit_[f]);
    free_bit_[f] = 0;
    const u64 s = f >> kLargePageShift;
    if (s < slot_free_.size()) --slot_free_[s];
    return f;
  }

  /// Any free frame: stale-tolerant recycled hints LIFO (validity checked
  /// against the bitmap — preferred-slot allocation can consume a hinted
  /// frame first), then fresh frames in ascending order, skipping frames
  /// the preferred path already took. Off large mode nothing else takes
  /// frames, so every hint and every fresh frame is free.
  [[nodiscard]] FrameId any_free_frame() {
    while (!recycled_.empty()) {
      const FrameId f = recycled_.back();
      recycled_.pop_back();
      if (free_bit_[f]) return f;
    }
    while (next_frame_ < capacity_) {
      const FrameId f = next_frame_++;
      if (free_bit_[f]) return f;
    }
    assert(false && "allocate without a reserve — no free frame");
    return kInvalidFrame;
  }

  u64 capacity_;
  u64 watermark_pages_;
  u64 free_frames_;
  FrameId next_frame_ = 0;
  std::vector<FrameId> recycled_;
  bool evictions_seen_ = false;
  TenantTable* tenants_;
  TenantMode mode_;

  bool large_mode_;
  std::vector<u8> free_bit_;          ///< per-frame free bit
  FlatMap<LargeId, u64> region_slot_; ///< virtual region -> preferred slot
  std::vector<u64> slot_free_;        ///< free frames per aligned slot
  std::vector<LargeId> slot_region_;  ///< slot -> bound region (or invalid)
};

}  // namespace uvmsim
