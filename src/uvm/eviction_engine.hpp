// EvictionEngine: room-making. Drives the eviction policy's victim
// selection (batched through EvictionPolicy::select_victims), releases the
// victims' pages (release: the one way any page leaves the device),
// reserves D2H write-back occupancy and keeps the eviction statistics.
// Serves both demand eviction (make room for an admitted plan, on the
// fault's critical path) and pre-eviction (restore the free-frame
// watermark ahead of need).
//
// Multi-tenant victim sourcing (docs/multitenancy.md): room is made on
// behalf of an *initiator* tenant, and the sharing mode decides whose
// chunks may be evicted —
//   shared + global scope   the single global policy, unrestricted (legacy);
//   shared + self scope     the initiator's own chunks first (filtered
//                           selection on the shared chain), global fallback;
//   partitioned             only the initiator's own per-tenant chain —
//                           quotas make its own chunks the only way to gain
//                           admissible frames;
//   quota                   over-quota tenants first (largest overage,
//                           then lowest id), then the initiator itself,
//                           then the largest remaining holder.
// Cross-tenant evictions are attributed to both sides in TenantStats.
#pragma once

#include <vector>

#include "mem/bandwidth_link.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/fabric_port.hpp"
#include "uvm/frame_pool.hpp"

namespace uvmsim {

class LargeFrameManager;

class EvictionEngine {
 public:
  /// `links` carry the recorder, the tenancy that sources victims (above)
  /// and the fabric: evictions update its directory, and with `links.spill`
  /// set victims move to a peer with free frames over NVLink instead of
  /// writing back to host over PCIe. With `lfm` set (large-pages mode,
  /// docs/memory.md) a victim inside a coalesced 2 MB frame either takes
  /// the whole frame out as one bulk DMA (every sibling chunk cold and
  /// unpinned) or splinters it first and evicts just the cold part;
  /// `bulk_dma_percent` is the per-page D2H occupancy of the bulk transfer
  /// relative to scattered page copies (SystemConfig).
  EvictionEngine(EventQueue& eq, ChainSet& chains, PageTable& pt, FramePool& frames,
                 const ShootdownList& shootdowns, Cycle pcie_page_cycles,
                 DriverStats& stats, const DriverLinks& links = {},
                 LargeFrameManager* lfm = nullptr, u32 bulk_dma_percent = 100)
      : eq_(eq), chains_(chains), pt_(pt), frames_(frames),
        shootdowns_(shootdowns), d2h_(pcie_page_cycles), stats_(stats),
        rec_(links.recorder), tenants_(links.tenants), mode_(links.mode),
        scope_(links.scope), fabric_(links.fabric), device_(links.device),
        spill_(links.spill), lfm_(lfm), bulk_dma_percent_(bulk_dma_percent) {}

  EvictionEngine(const EvictionEngine&) = delete;
  EvictionEngine& operator=(const EvictionEngine&) = delete;

  void set_prefetcher(Prefetcher* p) noexcept { prefetcher_ = p; }

  /// Page `p`, just unmapped from frame `f`, leaves this device: free the
  /// frame to `owner`, record shootdown_issued, run the shootdown handlers
  /// and note the fabric directory. Every unmap site calls it: eviction,
  /// whole-frame eviction, tenant teardown and surrender to a peer.
  void release(PageId p, FrameId f, TenantId owner);

  [[nodiscard]] const BandwidthLink& d2h() const noexcept { return d2h_; }

  struct RoomResult {
    u64 evicted = 0;     ///< chunks evicted by this call
    /// Stopped early: every candidate chunk is pinned, or a whole round of
    /// evictions freed no frames admissible to the initiator (the
    /// non-progress guard against livelocking on an at-quota initiator).
    bool starved = false;
  };

  /// Evict until at least `target_free_pages` frames are *admissible* to
  /// `initiator` (plain free frames when tenancy is off), asking the
  /// mode-selected policy for up to ceil(deficit / chunk) victims per
  /// round. Candidates beyond the target are discarded unused (selection
  /// has no side effects); `starved` is set when every admissible source
  /// runs out of unpinned victims first, or when a round of evictions
  /// fails to raise the initiator's admissible-frame count at all.
  RoomResult make_room(u64 target_free_pages, TenantId initiator = kNoTenant);

 private:
  void evict_chunk(ChunkId victim, TenantId initiator);
  /// Every chunk of coalesced region `l` cold (no touch in the current or
  /// previous interval) and unpinned — and spill cannot claim it?
  [[nodiscard]] bool whole_frame_evictable(LargeId l) const;
  /// Evict all kLargeChunks chunks of coalesced region `l` as ONE eviction
  /// operation: one bulk D2H DMA, one large-entry shootdown, per-chunk
  /// policy/pattern notifications.
  void evict_large_frame(LargeId l, TenantId initiator);
  /// Count `chunks` evicted chunks holding `pages` pages: the driver
  /// totals and, under tenancy, the owner's totals and self/other split.
  void account_eviction(TenantId owner, TenantId initiator, u64 chunks, u64 pages);
  /// One selection round for the current mode; empty when starved.
  [[nodiscard]] std::vector<ChunkId> select_round(u64 max_victims,
                                                  TenantId initiator);
  /// Victim-source domain order for per-tenant-chain modes.
  [[nodiscard]] std::vector<TenantId> source_order(TenantId initiator) const;

  EventQueue& eq_;
  ChainSet& chains_;
  PageTable& pt_;
  FramePool& frames_;
  const ShootdownList& shootdowns_;
  BandwidthLink d2h_;  ///< device -> host eviction write-backs
  DriverStats& stats_;
  Prefetcher* prefetcher_ = nullptr;
  FlightRecorder* rec_;
  TenantTable* tenants_;
  TenantMode mode_;
  EvictionScope scope_;
  FabricPort* fabric_;
  u32 device_;
  bool spill_;
  LargeFrameManager* lfm_;  ///< null when --large-pages is off
  u32 bulk_dma_percent_;
};

}  // namespace uvmsim
