#include "core/uvm_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fabric/sharded_fabric.hpp"
#include "policy/adaptive.hpp"
#include "policy/mhpe.hpp"
#include "prefetch/adaptive.hpp"
#include "prefetch/pattern_aware.hpp"
#include "tenancy/fairness.hpp"

namespace uvmsim {

namespace {

/// Sharded needs >= 2 devices (one shard per device, one hop of lookahead);
/// otherwise a single shard makes the engine a verbatim sequential
/// EventQueue. Refuses more devices than the engine's fabric protocol can
/// name, before anything is built.
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
  return {n, Fabric::hop_latency(sys, fabric), engine.threads};
}

/// The tenants' disjoint namespaces, carved in registration order.
StackTenancy tenancy_of(const std::vector<const Workload*>& workloads,
                        TenantMode mode, EvictionScope scope) {
  if (workloads.empty())
    throw std::invalid_argument("a tenant run needs at least one workload");
  StackTenancy t;
  for (const Workload* w : workloads) t.table.add(w->abbr(), w->footprint_pages());
  t.mode = mode;
  t.scope = scope;
  return t;
}

/// The introspection of MHPE, the pattern buffer and the adaptive policies
/// on a one-GPU run: fills the mhpe_*, pattern_* and adaptive_* fields from
/// `driver`'s live policy and prefetcher.
void collect_policy_introspection(RunResult& r, UvmDriver& driver) {
  const auto mhpe_of = [&r](const MhpePolicy& mhpe) {
    r.mhpe_used = true;
    r.mhpe_switched_to_lru = mhpe.switched_to_lru();
    r.mhpe_forward_distance = mhpe.forward_distance();
    r.mhpe_wrong_evictions = mhpe.wrong_evictions_total();
    r.untouch_history = mhpe.interval_untouch_history();
    r.wrong_buffer_capacity = mhpe.wrong_buffer_capacity();
  };
  if (const auto* mhpe = dynamic_cast<const MhpePolicy*>(&driver.policy()))
    mhpe_of(*mhpe);
  const auto* pa = dynamic_cast<const PatternAwarePrefetcher*>(&driver.prefetcher());
  const auto* apf = dynamic_cast<const AdaptivePrefetcher*>(&driver.prefetcher());
  if (apf != nullptr) pa = &apf->inner_pattern();  // the always-learning inner buffer
  if (pa != nullptr) {
    r.pattern_buffer_peak = pa->peak_size();
    r.pattern_buffer_capacity = pa->capacity();
    r.pattern_matches = pa->matches();
    r.pattern_mismatches = pa->mismatches();
    r.pattern_capacity_evictions = pa->capacity_evictions();
  }
  if (const auto* ap = dynamic_cast<const AdaptiveEvictionPolicy*>(&driver.policy())) {
    r.adaptive_used = true;
    r.adaptive_eviction_switches = ap->strategy_switches();
    for (const auto& h : ap->classifier().history())
      r.adaptive_phase_history.emplace_back(h.at, h.phase);
    // MHPE introspection from the live inner instance, when the run ended in
    // an MHPE phase (earlier phases' instances are gone by design).
    if (const auto* mhpe = ap->inner_mhpe()) mhpe_of(*mhpe);
  }
  if (apf != nullptr) {
    r.adaptive_used = true;
    r.adaptive_prefetch_switches = apf->strategy_switches();
    if (r.adaptive_phase_history.empty())
      for (const auto& h : apf->classifier().history())
        r.adaptive_phase_history.emplace_back(h.at, h.phase);
  }
}

}  // namespace

UvmSystem::UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
                     const Workload& workload, double oversub,
                     const FabricConfig& fabric, const EngineConfig& engine)
    : SystemBase(engine_shape(sys, fabric, engine)),
      gpu_cfg_(sys),
      pol_(pol),
      fabric_cfg_(fabric),
      oversub_(oversub),
      workloads_{&workload} {
  const u32 n = std::max(1u, fabric.gpus);
  fabric_cfg_.gpus = n;
  const u64 footprint = workload.footprint_pages();
  if (n > 1) fabric_ = Fabric::make(engine_, sys, fabric_cfg_, footprint);

  // Each device gets a 1/N share of the capacity and runs warps
  // d*W .. (d+1)*W of one n*W-warp grid.
  const u64 capacity = device_capacity(footprint, oversub, n);
  const u32 warps_per_device = sys.num_sms * sys.warps_per_sm;
  for (u32 d = 0; d < n; ++d) {
    DeviceStack& s = add_stack(sharded() ? d : 0, sys, pol, footprint, capacity,
                               n > 1 ? d : kNoTraceDevice, std::nullopt,
                               fabric_.get());
    // Per-device warp seeds derive from pol.seed + device id, so device 0
    // seeds exactly as a one-GPU run.
    gpus_.push_back(std::make_unique<Gpu>(
        s.queue(), sys, s.driver(), workload, pol.seed + d,
        GpuSlice{d * warps_per_device, n * warps_per_device}));
  }
}

UvmSystem::UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
                     const std::vector<const Workload*>& workloads,
                     double oversub, TenantMode mode, EvictionScope scope)
    : gpu_cfg_(sys), pol_(pol), oversub_(oversub), workloads_(workloads) {
  StackTenancy tenancy = tenancy_of(workloads, mode, scope);
  const u64 n = workloads.size();
  gpu_cfg_.num_sms = std::max<u32>(1, sys.num_sms / static_cast<u32>(n));

  // One shared pool sized off the combined footprint, with the capacity
  // floor scaled by the tenant count so every tenant's quota can hold the
  // admission-pinning minimum.
  u64 total_footprint = 0;
  for (const Workload* w : workloads) total_footprint += w->footprint_pages();
  const u64 span = tenancy.table.span_pages();
  DeviceStack& s = add_stack(0, sys, pol, span,
                             device_capacity(total_footprint, oversub, 1, n),
                             kNoTraceDevice, std::move(tenancy));

  // One Gpu per tenant on its SM slice, reading at its namespace base. Warp
  // seeds stay pol.seed-derived as in the solo run, so a tenant's access
  // streams match its solo behaviour.
  for (u64 t = 0; t < n; ++t)
    gpus_.push_back(std::make_unique<Gpu>(
        s.queue(), gpu_cfg_, s.driver(), *workloads[t], pol.seed,
        GpuSlice{.page_base = s.tenants()->info(static_cast<TenantId>(t)).base}));
}

RunResult UvmSystem::run(Cycle max_cycles) {
  RunResult r = run_and_collect(gpus_, max_cycles);
  r.oversub = oversub_;
  r.h2d_utilisation = mean_h2d_utilisation(r.cycles);
  if (const TenantTable* table = stack(0).tenants()) {
    const TenantMode mode = driver().frame_pool().tenant_mode();
    r.tenant_mode = kTenantModeNames.name(mode);
    for (u64 t = 0; t < table->size(); ++t) {
      const TenantId id = static_cast<TenantId>(t);
      const TenantInfo& info = table->info(id);
      const Gpu& g = *gpus_[t];
      if (!r.workload.empty()) r.workload += '+';
      r.workload += info.name;
      r.footprint_pages += info.footprint_pages;

      TenantRunResult tr;
      tr.id = id;
      tr.workload = info.name;
      tr.footprint_pages = info.footprint_pages;
      tr.quota_frames = mode == TenantMode::kShared ? 0 : info.quota_frames;
      tr.completed = g.finished();
      tr.finish_cycle = g.finished() ? g.finish_cycle() : queue().now();
      tr.stats = info.stats;
      r.tenants.push_back(std::move(tr));
    }
    return r;
  }

  r.workload = workloads_[0]->abbr();
  r.footprint_pages = workloads_[0]->footprint_pages();
  if (num_gpus() == 1) {
    collect_policy_introspection(r, driver());
    return r;
  }
  r.fabric = kFabricNames.name(fabric_cfg_.topology);
  r.gpus = num_gpus();
  for (u32 d = 0; d < num_gpus(); ++d) {
    const Gpu& g = *gpus_[d];
    r.devices.push_back(stack(d).result(
        d, g.finished() ? g.finish_cycle() : stack(d).queue().now(), g.finished()));
  }
  // Per-link totals are index-wise sums over the fabric's topologies
  // (utilisation = busy/now is additive at the same `now`).
  const std::vector<const FabricTopology*> topologies = fabric_->topologies();
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

void UvmSystem::run_solo_baselines(RunResult& r, Cycle max_cycles) const {
  std::vector<Cycle> solo_cycles;
  for (const Workload* w : workloads_) {
    UvmSystem solo(gpu_cfg_, pol_, *w, oversub_);
    const RunResult s = solo.run(max_cycles);
    if (!s.completed || s.clamped_past > 0)
      throw std::runtime_error("solo baseline of " + w->abbr() +
                               " did not complete cleanly");
    solo_cycles.push_back(s.cycles);
  }
  apply_solo_baselines(r, solo_cycles);
}

}  // namespace uvmsim
