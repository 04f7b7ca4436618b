// Multi-tenant vocabulary: who owns which pages, under what sharing mode,
// and the per-tenant accounting every layer reports into.
//
// A tenant is one workload co-scheduled on the shared GPU. Each tenant gets
// a disjoint page-address namespace carved out of one flat space (bases are
// 2 MB aligned, so chunk ownership is unambiguous), and the TenantTable is
// the single source of truth for page -> tenant resolution, frame quotas,
// live frame usage and per-tenant statistics. Single-tenant runs never
// construct a table: every tenant-aware component treats a null table /
// kNoTenant id as "tenancy off" and behaves exactly as before (the
// single-tenant trace and bench outputs stay byte-identical).
//
// Sharing modes (docs/multitenancy.md):
//   shared       one global frame pool and one global chunk chain; tenants
//                compete freely (optionally with evict-own-first scoping).
//   partitioned  hard static split: each tenant may only hold frames up to
//                its quota and only ever evicts its own chunks.
//   quota        soft guarantee: tenants may borrow free frames beyond
//                their quota, and room-making evicts over-quota tenants
//                first, so the guarantee is restored under pressure.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

enum class TenantMode : u8 {
  kShared = 0,      ///< one pool, one chain, free-for-all
  kPartitioned,     ///< hard per-tenant frame quotas + per-tenant chains
  kQuota,           ///< soft quotas with borrowing + over-quota-first eviction
};

/// Victim scoping for the *shared* mode (partitioned/quota always use the
/// faulting tenant's own chain, so the scope applies only to one global
/// chain): kGlobal is the paper's policy untouched; kSelf prefers victims
/// owned by the faulting tenant and falls back to global when it has none.
enum class EvictionScope : u8 { kGlobal = 0, kSelf };

[[nodiscard]] constexpr std::string_view to_string(TenantMode m) noexcept {
  switch (m) {
    case TenantMode::kShared: return "shared";
    case TenantMode::kPartitioned: return "partitioned";
    case TenantMode::kQuota: return "quota";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(EvictionScope s) noexcept {
  switch (s) {
    case EvictionScope::kGlobal: return "global";
    case EvictionScope::kSelf: return "self";
  }
  return "?";
}

[[nodiscard]] inline std::optional<TenantMode> parse_tenant_mode(
    std::string_view s) noexcept {
  if (s == "shared") return TenantMode::kShared;
  if (s == "partitioned") return TenantMode::kPartitioned;
  if (s == "quota") return TenantMode::kQuota;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<EvictionScope> parse_eviction_scope(
    std::string_view s) noexcept {
  if (s == "global") return EvictionScope::kGlobal;
  if (s == "self") return EvictionScope::kSelf;
  return std::nullopt;
}

/// Per-tenant slice of the driver counters, plus the cross-tenant
/// interference counters only a tenant-aware eviction engine can attribute.
struct TenantStats {
  u64 page_faults = 0;        ///< distinct far faults raised by this tenant
  u64 faults_coalesced = 0;
  u64 pages_migrated_in = 0;
  u64 pages_demanded = 0;
  u64 pages_prefetched = 0;
  u64 pages_evicted = 0;      ///< this tenant's pages written back
  u64 chunks_evicted = 0;     ///< this tenant's chunks evicted (any initiator)
  u64 evicted_by_self = 0;    ///< own chunks evicted making room for itself
  u64 evicted_by_others = 0;  ///< own chunks evicted for another tenant's room
  u64 evictions_of_others = 0;  ///< other tenants' chunks evicted for this one
  u64 fault_wait_cycles = 0;  ///< sum of raise -> wake delays
};

struct TenantInfo {
  std::string name;          ///< workload abbreviation, e.g. "NW"
  PageId base = 0;           ///< first page of this tenant's namespace
  u64 footprint_pages = 0;
  u64 quota_frames = 0;      ///< partitioned/quota modes (0 until computed)
  u64 used_frames = 0;       ///< frames currently reserved or mapped
  TenantStats stats;
};

class TenantTable {
 public:
  /// Namespace bases are large-frame (2 MB = 512-page = 32-chunk) aligned:
  /// ownership is constant within a chunk, prefetch plans clipped to the
  /// namespace never split a chunk between tenants, and a coalesced 2 MB
  /// region (docs/memory.md) can never straddle two tenants.
  static constexpr u64 kNamespaceAlignPages = kLargePages;
  static_assert(kNamespaceAlignPages % (kChunkPages * kLargeChunks) == 0,
                "namespace alignment must cover whole large-frame regions");

  /// Register a tenant; namespaces are assigned in registration order.
  /// Fixed-N construction only — arena tables use attach()/detach().
  TenantId add(std::string name, u64 footprint_pages) {
    assert(footprint_pages > 0);
    assert(!arena_ && "arena tables attach tenants dynamically");
    TenantInfo t;
    t.name = std::move(name);
    t.base = next_base_;
    t.footprint_pages = footprint_pages;
    next_base_ += align_up(footprint_pages);
    tenants_.push_back(std::move(t));
    active_.push_back(true);
    return static_cast<TenantId>(tenants_.size() - 1);
  }

  // --- Arena mode (fleet serving, docs/fleet.md) ---------------------------
  //
  // A fixed page-address arena with dynamic tenant attach/detach: namespaces
  // are carved from a free-region list (first-fit, 2 MB-aligned) and recycled
  // when the tenant detaches, and tenant ids are the lowest free slot so a
  // long-running fleet keeps both the address space and the id space bounded.
  // Arena mode is opt-in per table; tables that never call enable_arena()
  // behave exactly as before (fixed-N goldens stay byte-identical).

  /// Switch an empty table to arena mode over `arena_pages` of address space.
  void enable_arena(u64 arena_pages) {
    assert(tenants_.empty() && "enable_arena before any tenant registers");
    assert(arena_pages > 0 && arena_pages % kNamespaceAlignPages == 0);
    arena_ = true;
    arena_pages_ = arena_pages;
    free_regions_.assign(1, {0, arena_pages});
  }
  [[nodiscard]] bool arena_enabled() const noexcept { return arena_; }

  /// Could a tenant of this footprint be attached right now?
  [[nodiscard]] bool can_fit(u64 footprint_pages) const noexcept {
    const u64 need = align_up(footprint_pages);
    for (const auto& [base, pages] : free_regions_)
      if (pages >= need) return true;
    return false;
  }

  /// Attach a tenant into the arena: lowest free slot id, first-fit region.
  /// Returns kNoTenant when no contiguous region fits (the caller queues or
  /// rejects the job). The slot's stats and usage counters start fresh.
  TenantId attach(std::string name, u64 footprint_pages) {
    assert(arena_ && footprint_pages > 0);
    const u64 need = align_up(footprint_pages);
    for (const auto& [base, pages] : free_regions_)
      if (pages >= need) return attach_at(std::move(name), footprint_pages, base);
    return kNoTenant;
  }

  /// Attach a tenant at a PRESCRIBED base. The sharded fleet engine admits
  /// on the control shard's shadow table (which picks the region first-fit)
  /// and replays the attach on the device's table with the chosen base; the
  /// control table attaches earlier and detaches later than the device one,
  /// so the prescribed range is always inside a free region here (the subset
  /// invariant, docs/performance.md). Returns kNoTenant if it is not — the
  /// caller treats that as a protocol bug.
  TenantId attach_at(std::string name, u64 footprint_pages, PageId base) {
    assert(arena_ && footprint_pages > 0);
    assert(base % kNamespaceAlignPages == 0);
    const u64 need = align_up(footprint_pages);
    std::size_t r = 0;
    for (; r < free_regions_.size(); ++r) {
      const auto& [rb, rp] = free_regions_[r];
      if (base >= rb && base + need <= rb + rp) break;
    }
    assert(r < free_regions_.size() && "prescribed region must be free");
    if (r == free_regions_.size()) return kNoTenant;
    const auto [rb, rp] = free_regions_[r];
    free_regions_.erase(free_regions_.begin() + static_cast<long>(r));
    if (base + need < rb + rp)
      free_regions_.insert(free_regions_.begin() + static_cast<long>(r),
                           {base + need, (rb + rp) - (base + need)});
    if (base > rb)
      free_regions_.insert(free_regions_.begin() + static_cast<long>(r),
                           {rb, base - rb});
    // Lowest free slot id, with fresh stats and usage counters.
    std::size_t slot = 0;
    while (slot < tenants_.size() && active_[slot]) ++slot;
    if (slot == tenants_.size()) {
      tenants_.emplace_back();
      active_.push_back(false);
    }
    TenantInfo& t = tenants_[slot];
    t = TenantInfo{};
    t.name = std::move(name);
    t.base = base;
    t.footprint_pages = footprint_pages;
    active_[slot] = true;
    ++attached_;
    return static_cast<TenantId>(slot);
  }

  /// Detach a tenant whose frames have all been surrendered; its namespace
  /// region returns to the free list (coalescing with adjacent free space)
  /// and its slot id becomes reusable.
  void detach(TenantId t) {
    assert(arena_ && t < tenants_.size() && active_[t]);
    assert(tenants_[t].used_frames == 0 && "detach after surrendering frames");
    release_region(tenants_[t].base, align_up(tenants_[t].footprint_pages));
    active_[t] = false;
    --attached_;
  }

  /// Is slot `t` currently attached? (Fixed-N tenants are always active.)
  [[nodiscard]] bool active(TenantId t) const noexcept {
    return t < active_.size() && active_[t];
  }
  [[nodiscard]] u64 attached_count() const noexcept {
    return arena_ ? attached_ : tenants_.size();
  }

  /// Aligned namespace span of tenant `t` (footprint rounded to 2 MB).
  [[nodiscard]] u64 namespace_pages(TenantId t) const noexcept {
    return align_up(tenants_[t].footprint_pages);
  }

  [[nodiscard]] u64 size() const noexcept { return tenants_.size(); }
  [[nodiscard]] TenantInfo& info(TenantId t) { return tenants_[t]; }
  [[nodiscard]] const TenantInfo& info(TenantId t) const { return tenants_[t]; }
  [[nodiscard]] TenantStats& stats(TenantId t) { return tenants_[t].stats; }

  /// Total span of all namespaces — the driver-visible footprint. In arena
  /// mode this is the fixed arena size, independent of who is attached.
  [[nodiscard]] PageId span_pages() const noexcept {
    return arena_ ? arena_pages_ : next_base_;
  }

  /// Owner of `p`; kNoTenant for pages past every namespace (alignment gaps
  /// belong to the preceding tenant but are never faulted on). In arena mode
  /// only attached tenants own pages — a recycled region resolves to its new
  /// occupant, a free region to kNoTenant.
  [[nodiscard]] TenantId tenant_of_page(PageId p) const noexcept {
    if (arena_) {
      for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (!active_[i]) continue;
        const TenantInfo& t = tenants_[i];
        if (p >= t.base && p < t.base + align_up(t.footprint_pages))
          return static_cast<TenantId>(i);
      }
      return kNoTenant;
    }
    for (std::size_t i = tenants_.size(); i-- > 0;) {
      if (p >= tenants_[i].base)
        return p < next_base_ ? static_cast<TenantId>(i) : kNoTenant;
    }
    return kNoTenant;
  }
  [[nodiscard]] TenantId tenant_of_chunk(ChunkId c) const noexcept {
    return tenant_of_page(first_page_of_chunk(c));
  }

  /// Is `p` inside tenant `t`'s *usable* namespace (not an alignment gap)?
  [[nodiscard]] bool owns_page(TenantId t, PageId p) const noexcept {
    const TenantInfo& i = tenants_[t];
    return p >= i.base && p < i.base + i.footprint_pages;
  }

  /// Split `capacity_frames` into per-tenant quotas, proportional to
  /// footprint with largest-remainder rounding (quotas sum exactly to
  /// capacity), then raise any quota below one chunk at the expense of the
  /// largest — every tenant must be able to hold at least one migration.
  void compute_quotas(u64 capacity_frames) {
    const std::size_t n = tenants_.size();
    if (n == 0) return;
    u64 total = 0;
    for (const TenantInfo& t : tenants_) total += t.footprint_pages;
    assert(total > 0);
    u64 assigned = 0;
    std::vector<std::pair<u64, std::size_t>> rem;  // remainder desc, index asc
    rem.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const u64 share = capacity_frames * tenants_[i].footprint_pages;
      tenants_[i].quota_frames = share / total;
      assigned += tenants_[i].quota_frames;
      rem.emplace_back(share % total, i);
    }
    std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (std::size_t i = 0; assigned < capacity_frames; ++i, ++assigned)
      ++tenants_[rem[i % n].second].quota_frames;
    for (TenantInfo& t : tenants_) {
      while (t.quota_frames < kChunkPages) {
        TenantInfo* donor = nullptr;
        for (TenantInfo& d : tenants_)
          if (d.quota_frames > kChunkPages &&
              (donor == nullptr || d.quota_frames > donor->quota_frames))
            donor = &d;
        if (donor == nullptr) break;  // capacity too small to guarantee
        const u64 give = std::min(donor->quota_frames - kChunkPages,
                                  kChunkPages - t.quota_frames);
        donor->quota_frames -= give;
        t.quota_frames += give;
        if (give == 0) break;
      }
    }
  }

  // --- Live frame usage (updated by FramePool) -----------------------------
  void note_reserved(TenantId t, u64 n) {
    if (t != kNoTenant) tenants_[t].used_frames += n;
  }
  void note_released(TenantId t, u64 n) {
    if (t == kNoTenant) return;
    assert(tenants_[t].used_frames >= n);
    tenants_[t].used_frames -= n;
  }
  [[nodiscard]] u64 used_frames(TenantId t) const { return tenants_[t].used_frames; }
  [[nodiscard]] u64 quota_frames(TenantId t) const { return tenants_[t].quota_frames; }
  /// Frames tenant `t` may still take before hitting its quota.
  [[nodiscard]] u64 quota_headroom(TenantId t) const {
    const TenantInfo& i = tenants_[t];
    return i.quota_frames > i.used_frames ? i.quota_frames - i.used_frames : 0;
  }
  [[nodiscard]] u64 over_quota_by(TenantId t) const {
    const TenantInfo& i = tenants_[t];
    return i.used_frames > i.quota_frames ? i.used_frames - i.quota_frames : 0;
  }

 private:
  [[nodiscard]] static constexpr u64 align_up(u64 pages) noexcept {
    return (pages + kNamespaceAlignPages - 1) / kNamespaceAlignPages *
           kNamespaceAlignPages;
  }

  /// Return [base, base+pages) to the free list, merging with the regions
  /// immediately before and after so long-lived fleets never fragment the
  /// arena beyond what the live tenants force.
  void release_region(PageId base, u64 pages) {
    std::size_t i = 0;
    while (i < free_regions_.size() && free_regions_[i].first < base) ++i;
    free_regions_.insert(free_regions_.begin() + static_cast<long>(i),
                         {base, pages});
    if (i + 1 < free_regions_.size() &&
        free_regions_[i].first + free_regions_[i].second ==
            free_regions_[i + 1].first) {
      free_regions_[i].second += free_regions_[i + 1].second;
      free_regions_.erase(free_regions_.begin() + static_cast<long>(i) + 1);
    }
    if (i > 0 && free_regions_[i - 1].first + free_regions_[i - 1].second ==
                     free_regions_[i].first) {
      free_regions_[i - 1].second += free_regions_[i].second;
      free_regions_.erase(free_regions_.begin() + static_cast<long>(i));
    }
  }

  std::vector<TenantInfo> tenants_;
  std::vector<bool> active_;  ///< parallel to tenants_; always true fixed-N
  PageId next_base_ = 0;
  bool arena_ = false;
  u64 arena_pages_ = 0;
  u64 attached_ = 0;
  std::vector<std::pair<PageId, u64>> free_regions_;  ///< sorted by base
};

}  // namespace uvmsim
