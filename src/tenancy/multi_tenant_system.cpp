#include "tenancy/multi_tenant_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/uvm_system.hpp"
#include "tenancy/fairness.hpp"

namespace uvmsim {

namespace {

/// The tenants' disjoint namespaces, carved in registration order.
StackTenancy tenancy_of(const std::vector<const Workload*>& workloads,
                        TenantMode mode, EvictionScope scope) {
  if (workloads.empty())
    throw std::invalid_argument("MultiTenantSystem needs at least one workload");
  StackTenancy t;
  for (const Workload* w : workloads) t.table.add(w->abbr(), w->footprint_pages());
  t.mode = mode;
  t.scope = scope;
  return t;
}

}  // namespace

MultiTenantSystem::MultiTenantSystem(const SystemConfig& sys,
                                     const PolicyConfig& pol,
                                     const std::vector<const Workload*>& workloads,
                                     double oversub, TenantMode mode,
                                     EvictionScope scope)
    : tenant_cfg_(sys),
      pol_cfg_(pol),
      oversub_(oversub),
      mode_(mode),
      workloads_(workloads) {
  StackTenancy tenancy = tenancy_of(workloads, mode, scope);
  const u64 n = workloads.size();
  tenant_cfg_.num_sms = std::max<u32>(1, sys.num_sms / static_cast<u32>(n));

  // One shared pool sized off the combined footprint, with the capacity
  // floor scaled by the tenant count so every tenant's quota can hold the
  // admission-pinning minimum.
  u64 total_footprint = 0;
  for (const Workload* w : workloads) total_footprint += w->footprint_pages();
  const u64 span = tenancy.table.span_pages();
  DeviceStack& s = add_stack(0, sys, pol, span,
                             device_capacity(total_footprint, oversub, 1, n),
                             kNoTraceDevice, std::move(tenancy));

  // One Gpu per tenant on its SM slice. Warp seeds stay pol.seed-derived as
  // in the solo run, so a tenant's access streams match its solo behaviour.
  for (u64 t = 0; t < n; ++t) {
    offset_workloads_.push_back(std::make_unique<OffsetWorkload>(
        *workloads[t], s.tenants()->info(static_cast<TenantId>(t)).base));
    gpus_.push_back(std::make_unique<Gpu>(s.queue(), tenant_cfg_, s.driver(),
                                          *offset_workloads_.back(), pol.seed));
  }
}

MultiTenantSystem::~MultiTenantSystem() = default;

RunResult MultiTenantSystem::run(Cycle max_cycles) {
  RunResult r = run_and_collect(gpus_, max_cycles);
  r.oversub = oversub_;
  r.tenant_mode = kTenantModeNames.name(mode_);
  const TenantTable& table = tenants();
  for (u64 t = 0; t < table.size(); ++t) {
    const TenantId id = static_cast<TenantId>(t);
    const TenantInfo& info = table.info(id);
    const Gpu& g = *gpus_[t];
    if (!r.workload.empty()) r.workload += '+';
    r.workload += info.name;
    r.footprint_pages += info.footprint_pages;

    TenantRunResult tr;
    tr.id = id;
    tr.workload = info.name;
    tr.footprint_pages = info.footprint_pages;
    tr.quota_frames = mode_ == TenantMode::kShared ? 0 : info.quota_frames;
    tr.completed = g.finished();
    tr.finish_cycle = g.finished() ? g.finish_cycle() : queue().now();
    tr.stats = info.stats;
    r.tenants.push_back(std::move(tr));
  }
  r.h2d_utilisation = driver().h2d().utilisation(r.cycles);
  return r;
}

void MultiTenantSystem::run_solo_baselines(RunResult& r, Cycle max_cycles) const {
  std::vector<Cycle> solo_cycles;
  for (const Workload* w : workloads_) {
    UvmSystem solo(tenant_cfg_, pol_cfg_, *w, oversub_);
    const RunResult s = solo.run(max_cycles);
    if (!s.completed || s.clamped_past > 0)
      throw std::runtime_error("solo baseline of " + w->abbr() +
                               " did not complete cleanly");
    solo_cycles.push_back(s.cycles);
  }
  apply_solo_baselines(r, solo_cycles);
}

}  // namespace uvmsim
