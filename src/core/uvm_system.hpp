// UvmSystem: the one-call public API for every fixed-shape run. It bundles
// the event engine, one DeviceStack per device (the UVM driver with the
// configured eviction policy and prefetcher) and one Gpu per workload slice;
// `run()` simulates to completion and returns every metric the evaluation
// needs. Two constructors give its three shapes:
//
//  - one workload on one GPU, the paper's setting (the default);
//  - one workload sharded over the `fabric.gpus` devices of an NVLink
//    fabric (docs/fabric.md). Each device has its own stack and its Gpu
//    runs a 1/N slice of the warps (GpuSlice), seeded with pol.seed + device
//    and stamped with its device id in the trace. One Fabric joins the
//    drivers, and Fabric::make picks its protocol from the engine: under the
//    sequential engine every device sits on one shard and the synchronous
//    FabricCoordinator serves them; under --engine sharded each device owns
//    a shard and the message-passing ShardedFabric does (docs/performance.md).
//    A one-GPU run builds no fabric;
//  - N workloads as tenants of one device (docs/multitenancy.md). One stack
//    (driver, frame pool, PCIe link pair and prefetcher) serves every
//    tenant over disjoint namespaces (TenantTable). Each tenant's Gpu reads
//    at its namespace base (GpuSlice) and runs on a num_sms / N slice of the
//    SMs with its own TLBs, caches and DRAM timing, so interference is
//    modelled in the memory-management layer this repo studies.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto wl = make_benchmark("NW");
//   UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, /*oversub=*/0.5);
//   RunResult r = sys.run();
//   std::cout << r.cycles << " cycles, " << r.driver.page_faults << " faults\n";
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/run_result.hpp"
#include "core/system_base.hpp"
#include "fabric/fabric.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class UvmSystem : public SystemBase {
 public:
  /// One workload on `fabric.gpus` devices. `oversub` is the fraction of the
  /// footprint that fits in the combined device memory (the paper's "75% /
  /// 50% oversubscribed" settings are 0.75/0.5; >= 1.0 disables
  /// oversubscription); each device gets a 1/N share. Throws
  /// std::invalid_argument for `fabric.spill` under a sharded engine with
  /// two or more GPUs, and for more GPUs than the fabric can name
  /// (FabricCoordinator::kMaxDevices, or ShardedFabric::kMaxDevices under
  /// the sharded engine).
  UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
            const Workload& workload, double oversub,
            const FabricConfig& fabric = {}, const EngineConfig& engine = {});
  /// `workloads` as tenants of one device, borrowed for the system's
  /// lifetime. `oversub` is the fraction of the combined footprint that
  /// fits. Throws std::invalid_argument when `workloads` is empty.
  UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
            const std::vector<const Workload*>& workloads, double oversub,
            TenantMode mode, EvictionScope scope = EvictionScope::kGlobal);

  /// Simulate until every Gpu's warps finish (or `max_cycles`, as a safety
  /// net). The result carries per-tenant slices for a tenant run, per-device
  /// and per-link slices for a fabric run, and the MHPE, pattern-buffer and
  /// adaptive introspection for a one-GPU run.
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  /// Run each tenant's workload alone, on the same SM slice at the same
  /// oversubscription, and fill `r`'s slowdown_vs_solo and Jain index
  /// (tenancy/fairness.hpp). Throws std::runtime_error when a solo run hits
  /// `max_cycles` or clamps an event into the past: a truncated baseline
  /// would make every slowdown meaningless.
  void run_solo_baselines(RunResult& r, Cycle max_cycles) const;

  /// Gpus: one per device, or one per tenant.
  [[nodiscard]] u32 num_gpus() const noexcept {
    return static_cast<u32>(gpus_.size());
  }
  [[nodiscard]] UvmDriver& driver(u32 device = 0) noexcept {
    return stack(device).driver();
  }
  [[nodiscard]] Gpu& gpu(u32 i = 0) noexcept { return *gpus_[i]; }
  /// Device 0's flight recorder. Attach sinks (JsonlSink, RingSink,
  /// IntervalMetricsSink) before run(); sinks outlive the system. add_sink
  /// reaches every device's recorder.
  [[nodiscard]] FlightRecorder& recorder() noexcept { return stack(0).recorder(); }
  /// The tenant table of a tenant run.
  [[nodiscard]] const TenantTable& tenants() noexcept { return *stack(0).tenants(); }
  /// SMs each Gpu runs on: a tenant's slice, which its solo-baseline run
  /// must use too for slowdown to isolate memory interference.
  [[nodiscard]] u32 sms_per_tenant() const noexcept { return gpu_cfg_.num_sms; }
  /// The fabric joining the devices, under either engine (Fabric::make);
  /// null on one GPU and in a tenant run.
  [[nodiscard]] Fabric* fabric() noexcept { return fabric_.get(); }

 private:
  SystemConfig gpu_cfg_;  ///< every Gpu's config (a tenant's SM slice)
  PolicyConfig pol_;
  FabricConfig fabric_cfg_;
  double oversub_;
  std::vector<const Workload*> workloads_;  ///< the one workload, or each tenant's
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
};

}  // namespace uvmsim
