// Shared vocabulary of the layered fault-service pipeline (UvmDriver, its
// FaultTable, the fault-service backends, FramePool, EvictionEngine — see
// docs/architecture.md). Kept in one small header so the layers can talk
// about faults, batches, links and statistics without including each other.
#pragma once

#include <cassert>
#include <functional>
#include <vector>

#include "common/flat_map.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"  // FrameId

namespace uvmsim {

class FabricPort;
class FlightRecorder;

/// Fires when a faulted page has become resident (warp replay point).
/// Deliberately the same type as EventQueue::Callback: a wake moved into
/// schedule_at() relocates instead of re-wrapping, and the per-fault
/// `[this, sm, warp, page]` capture stays inline (move-only, no heap).
using WakeCallback = InlineFunction<void(), kCallbackInlineBytes>;

/// Device id meaning "the host" as a migration source/destination (also the
/// single-GPU default everywhere a device id appears in the driver stack).
inline constexpr u32 kHostDevice = ~u32{0};

/// What a device's driver stack is linked to, fixed when it is built and
/// handed by the driver to each layer that needs it. The defaults are a lone
/// GPU with tracing off.
struct DriverLinks {
  FlightRecorder* recorder = nullptr;  ///< null: tracing off
  /// The tenants sharing the device (null: one tenant), how they split its
  /// frames and chunk chains, and whose chunks their room-making may evict.
  TenantTable* tenants = nullptr;
  TenantMode mode = TenantMode::kShared;
  EvictionScope scope = EvictionScope::kGlobal;
  /// The fabric the device sits on as `device` (null: a lone GPU), and
  /// whether its evictions may spill to a peer.
  FabricPort* fabric = nullptr;
  u32 device = kHostDevice;
  bool spill = false;
};

/// Shootdown hooks. The page handler runs for every page that leaves a
/// device, with the frame it occupied (caches are physically indexed), or
/// with kInvalidFrame for a page a peer unmapped that this device reached
/// over the fabric. The 2 MB handler (large-pages mode) runs when a region's
/// large mapping disappears — splinter or whole-frame eviction; a pure
/// splinter leaves per-page translations valid (the frames stay put).
using ShootdownHandler = std::function<void(PageId, FrameId)>;
using LargeShootdownHandler = std::function<void(LargeId)>;

/// Every TLB and cache that may hold a driver's pages, as registrations
/// that fire in order: one per Gpu on the driver (several under tenancy).
/// The driver owns the list; the eviction engine and the large-frame
/// manager borrow it. A handle removes its registration when the Gpu dies
/// before the driver (fleet job teardown).
class ShootdownList {
 public:
  u64 add(ShootdownHandler page, LargeShootdownHandler large = {}) {
    entries_.push_back({next_handle_, std::move(page), std::move(large)});
    return next_handle_++;
  }
  /// Unknown handles are a no-op.
  void remove(u64 handle) {
    std::erase_if(entries_, [handle](const Entry& e) { return e.handle == handle; });
  }
  void page(PageId p, FrameId f) const {
    for (const Entry& e : entries_) e.page(p, f);
  }
  void large(LargeId l) const {
    for (const Entry& e : entries_)
      if (e.large) e.large(l);
  }

 private:
  struct Entry {
    u64 handle;
    ShootdownHandler page;
    LargeShootdownHandler large;
  };
  std::vector<Entry> entries_;
  u64 next_handle_ = 0;
};

/// An outstanding far fault, raise to wake: the warps waiting on the page,
/// plus when the first fault for it was raised (post-coalescing), which
/// feeds the fault-service-latency statistic.
struct PendingFault {
  std::vector<WakeCallback> waiters;
  Cycle raised_at = 0;
  bool faulted = false;    ///< true when this entry stems from a raised fault
  bool in_flight = false;  ///< a dispatched migration covers the page
};

/// Every outstanding fault of one driver, one entry per page. A raised
/// fault is pending until a migration plan absorbs it (`start`), then in
/// flight until completion `take`s the entry and wakes its waiters. A page
/// planned purely as a prefetch gets an in-flight entry with no waiters.
/// The driver owns the table; the fault-service backends read it.
class FaultTable {
 public:
  [[nodiscard]] PendingFault* find(PageId p) { return faults_.find(p); }
  /// Raised, but not yet covered by a migration plan.
  [[nodiscard]] bool pending(PageId p) const {
    const PendingFault* f = faults_.find(p);
    return f != nullptr && !f->in_flight;
  }
  [[nodiscard]] bool in_flight(PageId p) const {
    const PendingFault* f = faults_.find(p);
    return f != nullptr && f->in_flight;
  }
  /// Pending or in flight: the page has an entry.
  [[nodiscard]] bool outstanding(PageId p) const { return faults_.find(p) != nullptr; }
  /// Create the entry of a new fault on a page that has none.
  PendingFault& raise(PageId p, WakeCallback&& wake, Cycle now) {
    [[maybe_unused]] const auto [f, fresh] = faults_.try_emplace(p);
    assert(fresh);
    f->waiters.push_back(std::move(wake));
    f->raised_at = now;
    f->faulted = true;
    return *f;
  }
  /// A migration plan covers `p`: its waiters, if any, ride it.
  void start(PageId p) { faults_[p].in_flight = true; }
  /// The migration landed: remove the entry into `out`.
  bool take(PageId p, PendingFault& out) { return faults_.take(p, out); }

 private:
  FlatMap<PageId, PendingFault> faults_;
};

/// One driver service operation: the merged migration plan of a batch of
/// faults. `pages[0..faults)` are the faulted (lead) pages, in batch order —
/// plan trimming works from the back, so leads are dropped last.
struct MigrationBatch {
  std::vector<PageId> pages;
  std::vector<ChunkId> pinned;  ///< one entry per pin placed at service time
  PageId lead = 0;              ///< first faulted page (event payloads)
  u32 faults = 1;               ///< distinct faults serviced by this operation
  Cycle formed_at = 0;          ///< cycle the batch entered service
  /// Owning tenant — batches are tenant-homogeneous (the backends' shared
  /// drain keeps other tenants' faults out of a batch); kNoTenant when
  /// tenancy is off.
  TenantId tenant = kNoTenant;
  /// Where the pages come from: kHostDevice for ordinary host migrations,
  /// a peer device id for NVLink peer migrations (src/fabric). Peer batches
  /// bypass the backend's queues and the driver-concurrency slots.
  u32 src_device = kHostDevice;
};

/// Driver-wide counters, updated by the driver, its eviction engine and its
/// large-frame manager.
struct DriverStats {
  u64 page_faults = 0;        ///< distinct far-fault events (post-coalescing)
  u64 faults_coalesced = 0;   ///< faults that joined an in-flight migration
  u64 pages_migrated_in = 0;  ///< total pages moved host -> device
  u64 pages_demanded = 0;     ///< migrated pages that had a waiting fault
  u64 pages_prefetched = 0;   ///< migrated pages moved speculatively
  u64 pages_evicted = 0;      ///< pages moved device -> host (Fig 4 metric)
  u64 chunks_evicted = 0;
  u64 migration_ops = 0;      ///< driver service operations
  u64 demand_evictions = 0;   ///< chunk evictions on a fault's critical path
  u64 pre_evictions = 0;      ///< chunk evictions performed ahead of need
  /// Sum over raised faults of raise -> wake delay; divided by page_faults
  /// this is the mean fault-service latency (bench/abl_fault_batch).
  u64 fault_wait_cycles = 0;

  // --- Multi-GPU fabric (all zero when --gpus == 1) -------------------------
  u64 remote_accesses = 0;    ///< faults satisfied by a remote NVLink access
  u64 peer_fetches = 0;       ///< pages migrated in from a peer device
  u64 spill_hopbacks = 0;     ///< peer fetches that were spill second chances
  u64 faults_forwarded = 0;   ///< faults routed to the page's home or fetcher
  u64 chunks_spilled = 0;     ///< evictions that spilled to a peer, not host
  u64 pages_spilled = 0;
  u64 pages_surrendered = 0;  ///< resident pages handed to a fetching peer

  // --- Large-pages mode (all zero when --large-pages is off) ----------------
  u64 coalesces = 0;            ///< regions promoted to a 2 MB frame
  u64 splinters = 0;            ///< 2 MB frames demoted back to chunks
  u64 large_frames_evicted = 0; ///< whole-frame evictions (one DMA each)

  /// Field-wise sum: the run total over several drivers (fabric devices,
  /// fleet devices). A new counter must be added here too;
  /// tests/core/device_stack_test.cpp holds the struct size to this list.
  DriverStats& operator+=(const DriverStats& s) noexcept {
    page_faults += s.page_faults;
    faults_coalesced += s.faults_coalesced;
    pages_migrated_in += s.pages_migrated_in;
    pages_demanded += s.pages_demanded;
    pages_prefetched += s.pages_prefetched;
    pages_evicted += s.pages_evicted;
    chunks_evicted += s.chunks_evicted;
    migration_ops += s.migration_ops;
    demand_evictions += s.demand_evictions;
    pre_evictions += s.pre_evictions;
    fault_wait_cycles += s.fault_wait_cycles;
    remote_accesses += s.remote_accesses;
    peer_fetches += s.peer_fetches;
    spill_hopbacks += s.spill_hopbacks;
    faults_forwarded += s.faults_forwarded;
    chunks_spilled += s.chunks_spilled;
    pages_spilled += s.pages_spilled;
    pages_surrendered += s.pages_surrendered;
    coalesces += s.coalesces;
    splinters += s.splinters;
    large_frames_evicted += s.large_frames_evicted;
    return *this;
  }
};

}  // namespace uvmsim
