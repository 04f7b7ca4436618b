// SystemBase: the body every system is built from. UvmSystem (one workload
// on one GPU or a fabric, or tenants of one GPU) and FleetSystem are
// configurations of it, differing only in their device stacks, the shard
// each sits on, and the Gpus that run on them. One ShardedEngine (a single
// shard runs its queue verbatim), one TraceFanout over the stacks'
// recorders, and one place that collects the RunResult fields every system
// shares (docs/architecture.md).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "core/device_stack.hpp"
#include "core/run_result.hpp"
#include "gpu/gpu.hpp"
#include "obs/shard_trace.hpp"
#include "sim/sharded_engine.hpp"

namespace uvmsim {

/// Shape of a system's engine: shard count, conservative lookahead and
/// worker threads. The default is the sequential single shard.
struct EngineShape {
  u32 shards = 1;
  Cycle lookahead = 1;
  u32 threads = 1;
};

class SystemBase {
 public:
  // Event callbacks hold the system's address.
  SystemBase(const SystemBase&) = delete;
  SystemBase& operator=(const SystemBase&) = delete;

  /// Attach a trace sink to every recorder of the system; every sink sees
  /// every event. Sharded runs deliver the merged, deterministic stream
  /// after run(), which finishes each sink at the run's last cycle.
  void add_sink(TraceSink* sink) { trace_.add_sink(sink); }

  /// Shard 0's queue: THE queue of a single-shard system.
  [[nodiscard]] EventQueue& queue() noexcept { return engine_.queue(0); }
  [[nodiscard]] bool sharded() const noexcept { return engine_.num_shards() > 1; }

 protected:
  explicit SystemBase(EngineShape shape = {});
  ~SystemBase() = default;

  /// Build a device stack on shard `shard`'s queue (see DeviceStack) and fan
  /// traces out to it.
  DeviceStack& add_stack(u32 shard, const SystemConfig& sys,
                         const PolicyConfig& pol, u64 span_pages,
                         u64 capacity_pages, u32 device = kNoTraceDevice,
                         std::optional<StackTenancy> tenancy = std::nullopt,
                         Fabric* fabric = nullptr);
  [[nodiscard]] DeviceStack& stack(u32 i) noexcept { return *stacks_[i]; }
  [[nodiscard]] const DeviceStack& stack(u32 i) const noexcept { return *stacks_[i]; }

  /// Launch `gpus`, run the engine until they finish (or `max_cycles`), and
  /// return the RunResult fields every system shares:
  ///  - completion: every Gpu finished; cycles: the last finish, or the
  ///    furthest shard clock when the cap was hit (or, for a system with
  ///    no Gpus of its own, always: the fleet sets completion itself);
  ///  - Gpu statistics summed over `gpus` and every stack's retired Gpus;
  ///  - the policy, prefetcher and fault-backend names, capacity, driver and
  ///    backend statistics, PCIe traffic and chain lengths over the stacks;
  ///  - the trace-event count, the simulator counters over every shard, and
  ///    the engine counters when sharded.
  /// Staged traces are delivered and the sinks finished at the furthest
  /// shard clock before it returns.
  [[nodiscard]] RunResult run_and_collect(
      const std::vector<std::unique_ptr<Gpu>>& gpus, Cycle max_cycles);
  /// H2D link utilisation over [0, cycles], averaged over the device stacks.
  [[nodiscard]] double mean_h2d_utilisation(Cycle cycles) const;

  ShardedEngine engine_;
  TraceFanout trace_;
  std::vector<std::unique_ptr<DeviceStack>> stacks_;
};

}  // namespace uvmsim
