// MigrationScheduler: the in-flight half of the fault-service pipeline.
// Owns the driver-concurrency slots and the H2D link, and times a service
// operation: the backend's service charge (the 20 us host round trip or the
// GPU-driven handler's occupancy), then PCIe occupancy. On completion it
// binds frames, fills the chunk chain, advances the interval clock and
// takes each page's FaultTable entry to wake the stalled warps, then hands
// control back to the driver facade (pre-eviction + admission of the next
// batch) through the completion hook.
//
// Multi-tenant runs: batches are tenant-homogeneous, so completion fills
// the batch tenant's own chain/policy domain (its own interval clock) and
// reports the per-tenant migration statistics; the completion hook carries
// the tenant so the facade can scope pre-eviction.
#pragma once

#include <functional>
#include <vector>

#include "common/config.hpp"
#include "mem/bandwidth_link.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/eviction_policy.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/fabric_port.hpp"
#include "uvm/frame_pool.hpp"

namespace uvmsim {

class FaultServiceBackend;
class LargeFrameManager;

class MigrationScheduler {
 public:
  MigrationScheduler(EventQueue& eq, const SystemConfig& sys,
                     const PolicyConfig& pol, FramePool& frames, PageTable& pt,
                     ChainSet& chains, FaultTable& faults,
                     FaultServiceBackend& backend, DriverStats& stats);

  MigrationScheduler(const MigrationScheduler&) = delete;
  MigrationScheduler& operator=(const MigrationScheduler&) = delete;

  void set_recorder(FlightRecorder* rec) noexcept { rec_ = rec; }
  void set_tenant_table(TenantTable* table) noexcept { tenants_ = table; }
  /// Multi-GPU wiring: peer batches reserve fabric (not H2D) occupancy, and
  /// completions maintain the fabric directory.
  void set_fabric(FabricPort* fabric, u32 device) noexcept {
    fabric_ = fabric;
    device_ = device;
  }
  /// Large-pages wiring: completions bind frames through the slot-binding
  /// allocator and queue a coalesce scan when a chunk goes fully-touched.
  void set_large_manager(LargeFrameManager* lfm) noexcept { lfm_ = lfm; }
  /// Runs after each completed batch (driver facade: pre-evict, release the
  /// slot, admit the next batch) with the batch's tenant; `peer` marks peer
  /// fetches, which never held a driver slot.
  void set_completion_hook(std::function<void(TenantId, bool)> hook) {
    hook_ = std::move(hook);
  }

  // --- Driver-concurrency slots --------------------------------------------
  [[nodiscard]] bool has_free_slot() const noexcept {
    return active_migrations_ < max_concurrent_migrations_;
  }
  void acquire_slot() noexcept { ++active_migrations_; }
  void release_slot() noexcept { --active_migrations_; }

  /// Append `plan` to `merged`, deduplicating across the batch's plans.
  static void merge_plan(std::vector<PageId>& merged, const std::vector<PageId>& plan);

  /// Admit a formed batch whose pages the FaultTable holds in flight: charge
  /// fault service + synchronous eviction work, reserve H2D occupancy and
  /// schedule completion.
  void dispatch(MigrationBatch&& m, u64 demand_evictions);

  [[nodiscard]] const BandwidthLink& h2d() const noexcept { return h2d_; }

 private:
  void complete(MigrationBatch m);

  EventQueue& eq_;
  FramePool& frames_;
  PageTable& pt_;
  ChainSet& chains_;
  FaultTable& faults_;
  FaultServiceBackend& backend_;  ///< service-timing seam
  DriverStats& stats_;
  BandwidthLink h2d_;  ///< host -> device page migrations
  u32 fault_batch_;  ///< batch window (events gated on > 1)
  u32 active_migrations_ = 0;
  u32 max_concurrent_migrations_;  ///< PolicyConfig::driver_concurrency

  FlightRecorder* rec_ = nullptr;
  TenantTable* tenants_ = nullptr;
  FabricPort* fabric_ = nullptr;
  u32 device_ = kHostDevice;
  LargeFrameManager* lfm_ = nullptr;  ///< null when --large-pages is off
  std::function<void(TenantId, bool)> hook_;
};

}  // namespace uvmsim
