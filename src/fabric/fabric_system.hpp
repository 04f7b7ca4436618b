// FabricSystem: N GPUs on one NVLink fabric running one shared workload —
// the multi-GPU sibling of UvmSystem (core/uvm_system.hpp).
//
// N full Gpu instances, each with its OWN DeviceStack (driver, frame pool,
// chunk chains, prefetcher, PCIe link pair), run over a ShardedEngine
// (sim/sharded_engine.hpp). Under the default --engine seq the engine holds
// ONE shard whose run() is a verbatim EventQueue::run — byte-identical to
// the historical single-queue build — and the synchronous FabricCoordinator
// joins the drivers (fault routing, spill-to-peer, link timing;
// docs/fabric.md). Under --engine sharded each device owns a shard (its own
// EventQueue) advanced in parallel, and the message-passing ShardedFabric
// replaces the coordinator (forward-only home-pinned protocol;
// docs/performance.md).
//
// Each device records through its stack's recorder, stamped with its device
// id; sharded traces merge deterministically after the run (TraceFanout).
//
// A 1-GPU FabricSystem builds no fabric and is cycle-for-cycle identical to
// UvmSystem (tests/fabric/fabric_system_test.cpp holds this); --engine
// sharded needs >= 2 GPUs and falls back to the sequential single shard.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/run_result.hpp"
#include "core/system_base.hpp"
#include "fabric/fabric.hpp"
#include "fabric/sharded_fabric.hpp"
#include "fabric/sharded_workload.hpp"
#include "gpu/gpu.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class FabricSystem : public SystemBase {
 public:
  /// `oversub` is the fraction of the footprint that fits in the COMBINED
  /// device memory; each device gets a 1/N share (with UvmSystem's
  /// per-driver capacity floor), so oversubscription pressure per device
  /// matches the single-GPU run at N = 1. Throws std::invalid_argument for
  /// `fabric.spill` under a sharded engine with two or more GPUs, and for
  /// more GPUs than the fabric can name (FabricCoordinator::kMaxDevices, or
  /// ShardedFabric::kMaxDevices under the sharded engine).
  FabricSystem(const SystemConfig& sys, const PolicyConfig& pol,
               const Workload& workload, double oversub,
               const FabricConfig& fabric, const EngineConfig& engine = {});
  ~FabricSystem();

  /// Simulate until every device's warps finish (or `max_cycles`).
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  [[nodiscard]] u32 num_gpus() const noexcept {
    return static_cast<u32>(gpus_.size());
  }
  [[nodiscard]] UvmDriver& driver(u32 d) noexcept { return stack(d).driver(); }
  [[nodiscard]] Gpu& gpu(u32 d) noexcept { return *gpus_[d]; }
  /// Null for 1-GPU and sharded systems (no coordinator is built).
  [[nodiscard]] FabricCoordinator* fabric() noexcept { return coord_.get(); }
  /// Null outside --engine sharded.
  [[nodiscard]] ShardedFabric* sharded_fabric() noexcept {
    return sharded_.get();
  }

 private:
  FabricConfig fab_cfg_;
  const Workload& workload_;
  double oversub_;

  std::unique_ptr<FabricCoordinator> coord_;
  std::unique_ptr<ShardedFabric> sharded_;
  std::vector<std::unique_ptr<ShardedWorkload>> shards_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
};

}  // namespace uvmsim
