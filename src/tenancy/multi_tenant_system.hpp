// MultiTenantSystem: N workloads co-scheduled on one shared memory system.
//
// The multi-tenant sibling of UvmSystem (core/uvm_system.hpp): one
// DeviceStack (one UvmDriver, FramePool, pair of PCIe links and prefetcher)
// serving every tenant, and one Gpu instance per tenant running
// its workload on a spatial slice of the SMs (num_sms / N each, at least
// one). Tenant namespaces are disjoint (OffsetWorkload + TenantTable), so
// all driver state is keyed unambiguously; the sharing mode decides how
// frames and victim selection are split (tenancy/tenant.hpp).
//
// The memory system below the driver is fully shared — frame pool, H2D/D2H
// links, fault-service slots; each tenant's Gpu keeps its own TLBs, caches
// and DRAM timing (spatial partitioning: interference is modelled in the
// memory-management layer this repo studies, not in DRAM banking).
//
// run() drives all tenants to completion and returns one RunResult whose
// `tenants` vector carries the per-tenant slices; run_solo_baselines() then
// fills slowdown-vs-solo and the Jain index from independent solo runs.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/run_result.hpp"
#include "core/system_base.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "tenancy/offset_workload.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {

class MultiTenantSystem : public SystemBase {
 public:
  /// `workloads` are borrowed for the system's lifetime. `oversub` is the
  /// fraction of the *combined* footprint that fits in device memory.
  /// Throws std::invalid_argument when `workloads` is empty.
  MultiTenantSystem(const SystemConfig& sys, const PolicyConfig& pol,
                    const std::vector<const Workload*>& workloads,
                    double oversub, TenantMode mode,
                    EvictionScope scope = EvictionScope::kGlobal);
  ~MultiTenantSystem();

  /// Simulate until every tenant's warps finish (or `max_cycles`).
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  /// Run each tenant's workload alone, on the same SM slice at the same
  /// oversubscription, and fill `r`'s slowdown_vs_solo and Jain index
  /// (tenancy/fairness.hpp). Throws std::runtime_error when a solo run hits
  /// `max_cycles` or clamps an event into the past: a truncated baseline
  /// would make every slowdown meaningless.
  void run_solo_baselines(RunResult& r, Cycle max_cycles) const;

  [[nodiscard]] u64 num_tenants() const noexcept { return workloads_.size(); }
  [[nodiscard]] const TenantTable& tenants() noexcept { return *stack(0).tenants(); }
  [[nodiscard]] UvmDriver& driver() noexcept { return stack(0).driver(); }
  [[nodiscard]] Gpu& gpu(TenantId t) noexcept { return *gpus_[t]; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return stack(0).recorder(); }
  /// SMs each tenant's Gpu runs on — the solo-baseline run must use the
  /// same count for slowdown to isolate memory interference.
  [[nodiscard]] u32 sms_per_tenant() const noexcept { return tenant_cfg_.num_sms; }

 private:
  SystemConfig tenant_cfg_;  ///< the system config with the per-tenant SM slice
  PolicyConfig pol_cfg_;
  double oversub_;
  TenantMode mode_;
  std::vector<const Workload*> workloads_;
  std::vector<std::unique_ptr<OffsetWorkload>> offset_workloads_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
};

}  // namespace uvmsim
