// UvmDriver: the GPU software runtime + GMMU pair that manages unified
// memory (paper §II-A). It runs every migration itself, over three layers
// of the fault-service pipeline (docs/architecture.md):
//
//   FaultServiceBackend queue discipline and service timing — the pluggable
//                       seam (src/faultsvc): the classic host driver (FIFO
//                       backlog + fault_latency_us) or the GPUVM-style
//                       GPU-driven handler (--fault-backend)
//   FramePool           frame accounting, oversubscription cap, live pressure
//   EvictionEngine      room-making: demand eviction + pre-eviction
//
// The driver owns the FaultTable (every outstanding fault, one entry from
// raise to wake) and the H2D link. It merges a batch's prefetch plans into
// one migration, admits every migration — host batch or peer fetch — in
// one routine (pin the chunks it fills, make room, reserve frames, charge
// the service and the link, at most driver_concurrency host batches at
// once), and completes it: map the pages, fill the chain, wake the stalled
// warps, advance the interval clock, pre-evict and admit the next batch
// (paper §IV-A's coordination, in one place):
//
//   fault -> (coalesce with an outstanding fault?) -> backend queue ->
//   batch of <= fault_batch faults -> prefetcher plans merged/deduped ->
//   evict chunks until frames free -> 20 us fault service + PCIe H2D
//   occupancy -> map pages, fill chain, wake stalled warps.
//
// Evictions write back over the D2H direction of the link (PCIe is full
// duplex). Every page that leaves the device goes through
// EvictionEngine::release, which fires the driver's one ShootdownList; a
// fabric peer's unmap reaches the same list through remote_shootdown.
//
// Demand-touch visibility: the GPU calls `note_touch` on every L1-TLB-miss
// access to a resident page. This models the driver harvesting PTE access
// bits when it manipulates page tables — exactly the visibility MHPE needs
// (untouch levels of *evicted* chunks) without the per-access GPU-to-driver
// traffic the paper rules out for HPE.
//
// Multi-tenancy (src/tenancy/, docs/multitenancy.md): one driver serves all
// tenants, built with their TenantTable and sharing mode in its links;
// plans are clipped to the faulting tenant's namespace, admission respects
// per-tenant quotas (FramePool::admissible_frames), room-making is scoped
// to the initiator, and the partitioned/quota modes split the chunk chain
// into per-tenant domains with their own policy instances. Single-tenant
// runs have no table and are bit-for-bit unchanged.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "faultsvc/fault_backend.hpp"
#include "mem/bandwidth_link.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/eviction_engine.hpp"
#include "uvm/fabric_port.hpp"
#include "uvm/frame_pool.hpp"
#include "uvm/large_frames.hpp"

namespace uvmsim {

class UvmDriver final : public ResidencyView {
 public:
  /// A driver over `footprint_pages` of address space with `capacity_pages`
  /// frames, each of its layers built with what `links` gives it. A driver
  /// with a tenant table computes the tenants' quotas.
  UvmDriver(EventQueue& eq, const SystemConfig& sys, const PolicyConfig& pol,
            u64 footprint_pages, u64 capacity_pages, const DriverLinks& links = {});
  ~UvmDriver() override;

  UvmDriver(const UvmDriver&) = delete;
  UvmDriver& operator=(const UvmDriver&) = delete;

  /// Install the policy/prefetcher pair (see core/policy_factory), handing
  /// each the driver's recorder. The policy lands in domain 0 — the only
  /// domain for single-tenant runs and the shared tenant mode.
  void set_policy(std::unique_ptr<EvictionPolicy> policy) {
    set_domain_policy(0, std::move(policy));
  }
  void set_prefetcher(std::unique_ptr<Prefetcher> prefetcher);
  /// Register a shootdown observer (one per GPU sharing the driver); `page`
  /// runs just after each page's shootdown_issued event. The returned
  /// handle removes it again when that GPU is destroyed before the driver.
  u64 add_shootdown_handler(ShootdownHandler page, LargeShootdownHandler large = {}) {
    return shootdowns_.add(std::move(page), std::move(large));
  }
  void remove_shootdown_handler(u64 handle) { shootdowns_.remove(handle); }
  /// A fabric peer unmapped `p`, which this device may have reached
  /// remotely: run every page handler with kInvalidFrame (no event).
  void remote_shootdown(PageId p) { shootdowns_.page(p, kInvalidFrame); }

  // --- Large-pages mode (docs/memory.md) -------------------------------------
  /// Is transparent 2 MB frame management on (--large-pages)? Decided once
  /// at construction from PolicyConfig::large_pages.
  [[nodiscard]] bool large_pages_enabled() const noexcept {
    return lfm_ != nullptr;
  }
  /// The coalescing/splintering subsystem; nullptr when large pages are off.
  [[nodiscard]] LargeFrameManager* large_frames() noexcept { return lfm_.get(); }

  // --- Multi-tenancy ---------------------------------------------------------
  /// The partitioned/quota modes split the chunk chain per tenant: install a
  /// policy in every domain of chains(). The shared mode keeps the single
  /// domain-0 chain/policy.
  void set_domain_policy(u64 domain, std::unique_ptr<EvictionPolicy> policy);
  [[nodiscard]] ChainSet& chains() noexcept { return chains_; }
  /// Tear down a departing arena tenant's residency (fleet serving): unmap
  /// and release every frame in its namespace, drop the chain entries, and
  /// purge its chunk range from the prefetcher's learned state so a later
  /// job recycling the namespace never inherits stale patterns. The caller
  /// guarantees the tenant's warps have all finished (no in-flight
  /// migrations, so nothing in the range is pinned). Returns the number of
  /// pages reclaimed. The caller detaches from the TenantTable afterwards.
  u64 detach_tenant(TenantId t);

  // --- Multi-GPU fabric (src/fabric, docs/fabric.md) -------------------------
  // A driver built with a fabric in its links routes faults through the port
  // (remote access / peer fetch / forward), may spill evictions to a peer,
  // and updates the fabric directory on every migration. Without one (a
  // single-GPU run) it is bit-for-bit the pre-fabric driver.
  /// Is `p` on its way to this device: a raised fault still queued in the
  /// backend, or a migration in flight? The fabric's oracle for "a peer is
  /// already fetching this page".
  [[nodiscard]] bool fault_outstanding(PageId p) const {
    return faults_.outstanding(p);
  }
  /// `p` landed on the peer that fetched it from us: unmap and free our
  /// (pinned) copy.
  void surrender_page(PageId p);
  /// Adopt a chunk spilled from a peer: reserve frames, map the pages and
  /// insert (or extend) the chain entry, marked `spilled`. The fabric has
  /// already charged the link transfer.
  void adopt_spilled_chunk(ChunkId c, const TouchBits& resident);
  /// Pin a chunk against eviction while a peer transfer reads from it.
  void pin_for_transfer(ChunkId c);

  // --- GPU-side interface ----------------------------------------------------
  /// Is the page mapped right now (TLB-fillable)?
  [[nodiscard]] bool page_resident(PageId p) const { return pt_.resident(p); }

  /// Record a demand touch on a resident page (called on L1 TLB misses).
  void note_touch(PageId p);

  /// Raise a replayable far fault for `p` from SM `sm`; `wake` fires once
  /// `p` is mapped. The SM id selects the GPU-driven backend's per-SM fault
  /// queue; the host backend ignores it.
  void fault(PageId p, u32 sm, WakeCallback wake);
  /// Source-less fault (fabric forwards, direct driver calls):
  /// lands in SM queue 0 under the GPU-driven backend.
  void fault(PageId p, WakeCallback wake) { fault(p, 0, std::move(wake)); }

  /// The fault-service backend in charge (--fault-backend; docs/faultsvc.md):
  /// its kind, name and FaultBackendStats.
  [[nodiscard]] const FaultServiceBackend& fault_backend() const noexcept {
    return *backend_;
  }

  // --- ResidencyView (prefetcher oracle: resident OR already in flight) ------
  /// On a fabric, pages a peer holds (or is fetching, or that placement
  /// homes elsewhere) also read as "resident": prefetch plans must never
  /// pull them from the host.
  [[nodiscard]] bool is_resident(PageId p) const override {
    return pt_.resident(p) || faults_.in_flight(p) ||
           (fabric_ != nullptr && !fabric_->host_fetchable(device_, p));
  }
  [[nodiscard]] PageId footprint_pages() const override { return footprint_pages_; }

  // --- Introspection -----------------------------------------------------------
  [[nodiscard]] ChunkChain& chain() noexcept { return chains_.chain(0); }
  [[nodiscard]] const ChunkChain& chain() const noexcept { return chains_.chain(0); }
  [[nodiscard]] EvictionPolicy& policy() noexcept { return *chains_.policy(0); }
  [[nodiscard]] Prefetcher& prefetcher() noexcept { return *prefetcher_; }
  [[nodiscard]] const PageTable& page_table() const noexcept { return pt_; }
  [[nodiscard]] const FramePool& frame_pool() const noexcept { return frames_; }
  [[nodiscard]] u64 capacity_pages() const noexcept { return frames_.capacity(); }
  [[nodiscard]] u64 free_frames() const noexcept { return frames_.free_frames(); }
  /// "Memory full" in the paper's sense: live oversubscription pressure
  /// (FramePool::under_pressure) — a whole-chunk migration no longer fits
  /// beyond the pre-eviction headroom. Clears again if frames free up.
  [[nodiscard]] bool memory_full() const noexcept {
    return frames_.under_pressure();
  }

  [[nodiscard]] const DriverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BandwidthLink& h2d() const noexcept { return h2d_; }
  [[nodiscard]] const BandwidthLink& d2h() const noexcept { return evictor_.d2h(); }

 private:
  /// Owning tenant of `p`; kNoTenant when tenancy is off.
  [[nodiscard]] TenantId tenant_of(PageId p) const noexcept {
    return table_ != nullptr ? table_->tenant_of_page(p) : kNoTenant;
  }
  /// Service a formed batch of still-pending faults: merge the prefetcher's
  /// plans into one migration, clamp it to capacity, then admit it.
  void service_batch(std::vector<PageId> leads);
  /// Bring `p` in from peer `src` (fabric-routed fault). `hopback` marks a
  /// spill second chance. Peer fetches are single-page and bypass both the
  /// backend's queues and the driver-concurrency slots.
  void peer_fetch(PageId p, u32 src, bool hopback, WakeCallback wake);
  /// Service a single-page peer fetch (no queue, no slot): admit a one-page
  /// migration from device `src`.
  void service_peer(PageId p, u32 src);
  /// Admit a planned migration whose faulted pages `leads` head `m.pages`:
  /// pin the chunks it fills, make room (trimming the plan to what fits, or
  /// forming the batch again later if every chunk is pinned), reserve its
  /// frames, mark its pages in flight, charge the service and the link and
  /// schedule its completion. Host batches and peer fetches alike.
  void admit(MigrationBatch m, std::vector<PageId> leads);
  /// The migration landed: map its pages, fill the chain, wake the warps
  /// waiting on them, release the pins and advance the interval clock; then
  /// pre-evict back to the watermark (scoped to the batch's tenant), free
  /// the driver slot and admit the next batch. Peer batches never held a
  /// slot, so they skip the slot release.
  void complete(MigrationBatch m);
  /// Hand a free driver slot to the next formed batch, if any.
  void dispatch_pending();

  EventQueue& eq_;
  SystemConfig sys_;
  PolicyConfig pol_;
  u64 footprint_pages_;
  FlightRecorder* rec_;
  TenantTable* table_;
  TenantMode mode_;
  FabricPort* fabric_;
  u32 device_;

  PageTable pt_;
  ChainSet chains_;
  std::unique_ptr<Prefetcher> prefetcher_;
  DriverStats stats_;

  FramePool frames_;
  ShootdownList shootdowns_;
  FaultTable faults_;
  /// The pluggable fault-service seam (src/faultsvc): queue discipline and
  /// service timing. Chosen once at construction from
  /// SystemConfig::fault_backend.
  std::unique_ptr<FaultServiceBackend> backend_;
  /// Coalescing/splintering subsystem — created only when
  /// PolicyConfig::large_pages is set; default runs never construct it.
  std::unique_ptr<LargeFrameManager> lfm_;
  EvictionEngine evictor_;
  BandwidthLink h2d_;  ///< host -> device page migrations
  u32 active_migrations_ = 0;  ///< host batches in service
};

}  // namespace uvmsim
