// DeviceStack: one device's memory-management stack, built the same way by
// every system (core/system_base.hpp): the FlightRecorder and the UvmDriver,
// with the configured eviction policy in every chain domain and the
// configured prefetcher. A stack shared between tenants also owns their
// TenantTable. The Gpus running on a stack stay with the system.
#pragma once

#include <memory>
#include <optional>

#include "common/config.hpp"
#include "core/run_result.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {

/// The capacity rule every system sizes its drivers with: a 1/`devices`
/// share of `oversub` x `footprint`, capped at the footprint and floored at
/// 16 chunks per tenant, so admission-bounded pinning can never exhaust a
/// chain (UvmDriver's deadlock-freedom argument, per tenant).
[[nodiscard]] u64 device_capacity(u64 footprint_pages, double oversub,
                                  u32 devices = 1, u64 tenants = 1);

/// A driver shared between tenants: their table (fixed tenants already
/// added, or an empty arena) and how frames and victims are split.
struct StackTenancy {
  TenantTable table;
  TenantMode mode = TenantMode::kShared;
  EvictionScope scope = EvictionScope::kGlobal;
};

class DeviceStack {
 public:
  /// A driver over `span_pages` of address space with `capacity_pages`
  /// frames, on `eq`. Events are stamped with `device` unless it is
  /// kNoTraceDevice (single-device runs keep the trace unstamped).
  DeviceStack(EventQueue& eq, const SystemConfig& sys, const PolicyConfig& pol,
              u64 span_pages, u64 capacity_pages, u32 device = kNoTraceDevice,
              std::optional<StackTenancy> tenancy = std::nullopt);

  // Callbacks and the driver hold this stack's address.
  DeviceStack(const DeviceStack&) = delete;
  DeviceStack& operator=(const DeviceStack&) = delete;

  [[nodiscard]] UvmDriver& driver() noexcept { return driver_; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] EventQueue& queue() noexcept { return eq_; }
  /// The tenant table; nullptr for a single-tenant stack.
  [[nodiscard]] TenantTable* tenants() noexcept {
    return tenancy_ ? &tenancy_->table : nullptr;
  }
  [[nodiscard]] const TenantTable* tenants() const noexcept {
    return tenancy_ ? &tenancy_->table : nullptr;
  }

  /// Tear down a finished arena tenant (a fleet job): fold its Gpu's
  /// statistics into retired_gpu_stats(), destroy the Gpu (which drops its
  /// shootdown handlers), surrender the tenant's frames and detach it.
  void retire_tenant(TenantId t, std::unique_ptr<Gpu> gpu);
  /// Statistics of every Gpu retired from this stack.
  [[nodiscard]] const Gpu::Stats& retired_gpu_stats() const noexcept {
    return retired_gpus_;
  }

  /// This device's slice of a multi-device result.
  [[nodiscard]] DeviceRunResult result(u32 id, Cycle finish_cycle,
                                       bool completed) const;

 private:
  EventQueue& eq_;
  // Declared before the driver, which keeps pointers to both.
  std::optional<StackTenancy> tenancy_;
  FlightRecorder recorder_;
  UvmDriver driver_;
  Gpu::Stats retired_gpus_;
};

}  // namespace uvmsim
