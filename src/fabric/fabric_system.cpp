#include "fabric/fabric_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace uvmsim {

namespace {

/// Sharded needs >= 2 devices (one shard per device); otherwise a single
/// shard makes the engine a verbatim sequential EventQueue. Refuses more
/// devices than the engine's fabric protocol can name, before anything is
/// built.
EngineShape engine_shape(const SystemConfig& sys, const FabricConfig& fabric,
                         const EngineConfig& engine) {
  const u32 n = std::max(1u, fabric.gpus);
  const bool sharded = engine.kind == EngineKind::kSharded;
  const u32 max_gpus =
      sharded ? ShardedFabric::kMaxDevices : FabricCoordinator::kMaxDevices;
  if (n > max_gpus)
    throw std::invalid_argument(
        std::to_string(n) + " GPUs: the fabric under the " +
        std::string(kEngineNames.name(engine.kind)) + " engine holds at most " +
        std::to_string(max_gpus));
  if (!sharded || n == 1) return {};
  const Cycle hop_latency = std::max<Cycle>(
      1, static_cast<Cycle>(fabric.nvlink_latency_us * sys.core_ghz * 1000.0));
  return {n, hop_latency, engine.threads};
}

}  // namespace

FabricSystem::FabricSystem(const SystemConfig& sys, const PolicyConfig& pol,
                           const Workload& workload, double oversub,
                           const FabricConfig& fabric,
                           const EngineConfig& engine)
    : SystemBase(engine_shape(sys, fabric, engine)),
      fab_cfg_(fabric),
      workload_(workload),
      oversub_(oversub) {
  const u32 n = std::max(1u, fabric.gpus);
  fab_cfg_.gpus = n;
  const u64 footprint = workload.footprint_pages();
  if (sharded()) {
    if (fabric.spill)
      throw std::invalid_argument(
          "the sharded engine does not support spill (chunks may not change "
          "device; sharded_fabric.hpp)");
    sharded_ = std::make_unique<ShardedFabric>(engine_, sys, fab_cfg_, footprint);
  } else if (n > 1) {
    coord_ = std::make_unique<FabricCoordinator>(queue(), sys, fab_cfg_, footprint);
  }

  // Each device gets a 1/N share of the capacity; at N = 1 this is exactly
  // UvmSystem's capacity.
  const u64 capacity = device_capacity(footprint, oversub, n);
  const u32 warps_per_device = sys.num_sms * sys.warps_per_sm;
  for (u32 d = 0; d < n; ++d) {
    DeviceStack& s = add_stack(sharded() ? d : 0, sys, pol, footprint, capacity,
                               n > 1 ? d : kNoTraceDevice);
    if (n > 1)
      s.driver().attach_fabric(sharded_ ? sharded_->port(d) : coord_.get(), d,
                               fab_cfg_.spill);

    shards_.push_back(std::make_unique<ShardedWorkload>(
        workload_, d * warps_per_device, n * warps_per_device));
    // Per-device warp seeds derive from pol.seed + device id, so device 0
    // of a 1-GPU fabric matches UvmSystem's seeding exactly.
    auto gpu = std::make_unique<Gpu>(s.queue(), sys, s.driver(), *shards_.back(),
                                     pol.seed + d);
    auto invalidate = [g = gpu.get()](PageId p) { g->remote_shootdown(p); };
    if (sharded_) {
      sharded_->attach_device(d, &s.driver());
      sharded_->set_invalidator(d, invalidate);
    } else if (coord_) {
      coord_->attach_device(d, &s.driver());
      coord_->set_invalidator(d, invalidate);
    }
    gpus_.push_back(std::move(gpu));
  }
}

FabricSystem::~FabricSystem() = default;

RunResult FabricSystem::run(Cycle max_cycles) {
  RunResult r = run_and_collect(gpus_, max_cycles);
  r.workload = workload_.abbr();
  r.oversub = oversub_;
  r.footprint_pages = workload_.footprint_pages();
  r.h2d_utilisation = driver(0).h2d().utilisation(r.cycles);
  // Fabric-shaped result fields stay at their defaults for 1-GPU systems so
  // the result (and its JSON) is indistinguishable from a UvmSystem run.
  if (num_gpus() == 1) return r;
  r.fabric = kFabricNames.name(fab_cfg_.topology);
  r.gpus = num_gpus();
  for (u32 d = 0; d < num_gpus(); ++d) {
    const Gpu& g = *gpus_[d];
    r.devices.push_back(stack(d).result(
        d, g.finished() ? g.finish_cycle() : stack(d).queue().now(), g.finished()));
  }
  // The coordinator charges one topology; sharded, every device charges its
  // private copy. The copies share link ordering, so per-link totals are
  // index-wise sums (utilisation = busy/now is additive at the same `now`).
  std::vector<const FabricTopology*> topologies;
  if (coord_ != nullptr) topologies.push_back(&coord_->topology());
  for (u32 d = 0; sharded_ != nullptr && d < num_gpus(); ++d)
    topologies.push_back(&sharded_->topology(d));
  for (std::size_t i = 0; i < topologies[0]->links().size(); ++i) {
    LinkRunResult lr{topologies[0]->links()[i].name, 0, 0.0};
    for (const FabricTopology* t : topologies) {
      lr.units_moved += t->links()[i].link.units_moved();
      lr.utilisation += t->links()[i].link.utilisation(r.cycles);
    }
    r.links.push_back(lr);
  }
  return r;
}

}  // namespace uvmsim
