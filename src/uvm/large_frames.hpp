// LargeFrameManager: the coalescing/splintering half of large-pages mode
// (docs/memory.md). Watches for 2 MB regions whose 32 chunks are fully
// resident, fully demand-touched, unpinned and physically contiguous on a
// kLargePages-aligned frame run (FramePool's slot binding makes that the
// common case), and *promotes* them to one large page-table mapping —
// Mosaic's lazy coalescing: a pure metadata flip, off the fault critical
// path, with no data movement and no TLB invalidation (per-page
// translations are unchanged, so stale small entries stay correct).
//
// The inverse, *splintering*, expands a large mapping back into per-page
// PTEs when only part of the region must go — eviction pressure on a
// subset of its chunks, a page surrendered to a fetching peer, or a chunk
// spilling across the fabric. Splintering invalidates the large TLB
// entries (the 2 MB translation disappears) through the 2 MB handlers of
// the driver's ShootdownList, but the frames stay put, so the per-page
// translations the small TLBs may still hold remain valid.
//
// Never instantiated when --large-pages is off: default runs carry no
// scan events, no trace records and no behavioural change.
#pragma once

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

class LargeFrameManager {
 public:
  LargeFrameManager(EventQueue& eq, const SystemConfig& sys, PageTable& pt,
                    ChainSet& chains, const ShootdownList& shootdowns,
                    DriverStats& stats, FlightRecorder* rec = nullptr)
      : eq_(eq),
        scan_delay_(sys.coalesce_delay_cycles()),
        pt_(pt),
        chains_(chains),
        shootdowns_(shootdowns),
        stats_(stats),
        rec_(rec) {}

  LargeFrameManager(const LargeFrameManager&) = delete;
  LargeFrameManager& operator=(const LargeFrameManager&) = delete;

  /// Is `l` currently backed by one large mapping? The page table is the
  /// single source of truth.
  [[nodiscard]] bool coalesced(LargeId l) const { return pt_.large_mapped(l); }

  /// Queue a deferred coalesce scan of `l` (deduplicated): runs
  /// coalesce_delay_us later, keeping the candidacy walk off the fault
  /// path that noticed the region went fully-touched.
  void schedule_scan(LargeId l);

  /// Scan `l` now; promote and return true when the region qualifies.
  bool try_coalesce(LargeId l);

  /// Expand `l` back into per-page mappings and drop the stale 2 MB TLB
  /// entries. Frames stay put; small-page translations remain valid.
  void splinter(LargeId l, SplinterReason reason);

  [[nodiscard]] u64 pending_scans() const noexcept { return pending_.size(); }

 private:
  /// Candidacy walk: every chunk resident+touched in full, unpinned, not
  /// spill-adopted, not already coalesced, and the 512 frames contiguous
  /// from an aligned base (returned through `base_out`).
  [[nodiscard]] bool candidate(LargeId l, FrameId& base_out) const;

  EventQueue& eq_;
  Cycle scan_delay_;
  PageTable& pt_;
  ChainSet& chains_;
  const ShootdownList& shootdowns_;
  DriverStats& stats_;
  FlightRecorder* rec_;  ///< null: tracing off
  FlatSet<LargeId> pending_;  ///< regions with a scan already queued
};

}  // namespace uvmsim
