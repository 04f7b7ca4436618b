// FaultServiceBackend: the pluggable fault-service seam (docs/faultsvc.md).
//
// Every outstanding fault lives in the driver's FaultTable from raise to
// wake. A backend holds only what differs between fault-service models: the
// queue discipline that forms raised faults into service batches, and how
// long the driver-side service work of an admitted batch takes. UvmDriver
// and MigrationScheduler stay backend-agnostic:
//
//   HostDriverBackend  the paper's model — one FIFO backlog drained in
//                      `fault_batch` windows, every batch charged the fixed
//                      host round trip (fault_latency_us).
//   GpuDrivenBackend   GPUVM (arXiv 2411.05309) — per-SM bounded fault
//                      queues feeding a GPU-resident handler with a much
//                      smaller per-fault cost; bursts serialize on handler
//                      occupancy instead of paying the round trip each.
//
// Both drain through drain_one: tenant-homogeneous batches, entries the
// table no longer holds as pending (absorbed) skipped, trimmed leads
// requeued at the front.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

/// Backend-side counters. All zero under the host backend, so surfacing
/// them stays additive (JSON keys and report rows are gated on the
/// GPU-driven backend; docs/faultsvc.md).
struct FaultBackendStats {
  u64 faults_enqueued = 0;     ///< raises that entered a per-SM queue
  u64 queue_full_stalls = 0;   ///< raises that found their SM queue full
  u64 handler_pickups = 0;     ///< doorbell-coalesced handler wakeups
  u64 handler_busy_cycles = 0; ///< total handler occupancy charged
  u64 max_queue_depth = 0;     ///< high-water mark over all SM queues

  /// Fold in another backend's counters: sums, except the high-water mark,
  /// which takes the max.
  void merge(const FaultBackendStats& s) noexcept {
    faults_enqueued += s.faults_enqueued;
    queue_full_stalls += s.queue_full_stalls;
    handler_pickups += s.handler_pickups;
    handler_busy_cycles += s.handler_busy_cycles;
    max_queue_depth = std::max(max_queue_depth, s.max_queue_depth);
  }
};

class FaultServiceBackend {
 public:
  FaultServiceBackend(const FaultTable& faults, const PolicyConfig& pol)
      : faults_(faults), window_(std::max(1u, pol.fault_batch)) {}
  virtual ~FaultServiceBackend() = default;

  [[nodiscard]] virtual FaultBackendKind kind() const noexcept = 0;

  // --- Queue discipline -----------------------------------------------------
  /// Queue a fault just raised in the table, from SM `sm` (0 when the
  /// source SM is unknown — fabric forwards and direct driver calls).
  virtual void raise(PageId p, u32 sm) = 0;
  /// Faults queued, including entries absorbed since.
  [[nodiscard]] virtual u64 queued() const = 0;
  /// Form the next service batch of up to `fault_batch` pending faults
  /// (tenant-homogeneous when a table is attached).
  [[nodiscard]] virtual std::vector<PageId> take_batch(
      const TenantTable* tenants) = 0;
  /// A still-pending lead fault was trimmed out of an admitted plan: put it
  /// back so it is serviced next.
  virtual void requeue_front(PageId p) = 0;

  // --- Timing ---------------------------------------------------------------
  /// Charge the driver-side service work of an admitted batch (`faults`
  /// lead faults, `demand_evictions` synchronous chunk evictions) starting
  /// at `now`; returns the cycle the service completes and the transfer may
  /// begin. `lead` is the batch's lead page (event payloads only).
  virtual Cycle reserve_service(Cycle now, PageId lead, u32 faults,
                                u64 demand_evictions) = 0;

  void set_recorder(FlightRecorder* rec) noexcept { rec_ = rec; }
  [[nodiscard]] const FaultBackendStats& backend_stats() const noexcept {
    return bstats_;
  }

 protected:
  /// Pop the front of `dq` into `batch` if it is still pending and from the
  /// batch's tenant; discards absorbed entries. Returns true when an entry
  /// was taken; a fault from another tenant stays queued to lead the next
  /// batch, so global FIFO order across tenants is preserved.
  bool drain_one(std::deque<PageId>& dq, std::vector<PageId>& batch,
                 const TenantTable* tenants, TenantId& batch_tenant) const {
    while (!dq.empty()) {
      const PageId next = dq.front();
      if (!faults_.pending(next)) {  // absorbed by an earlier plan
        dq.pop_front();
        continue;
      }
      if (tenants != nullptr) {
        const TenantId t = tenants->tenant_of_page(next);
        if (batch.empty())
          batch_tenant = t;
        else if (t != batch_tenant)
          return false;
      }
      dq.pop_front();
      batch.push_back(next);
      return true;
    }
    return false;
  }

  const FaultTable& faults_;
  u32 window_;  ///< faults per service batch (--fault-batch)
  FlightRecorder* rec_ = nullptr;
  FaultBackendStats bstats_;
};

/// Build the backend SystemConfig::fault_backend selects, borrowing the
/// driver's fault table.
[[nodiscard]] std::unique_ptr<FaultServiceBackend> make_fault_backend(
    const SystemConfig& sys, const PolicyConfig& pol, const FaultTable& faults);

}  // namespace uvmsim
