#include "core/device_stack.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/policy_factory.hpp"

namespace uvmsim {

u64 device_capacity(u64 footprint_pages, double oversub, u32 devices,
                    u64 tenants) {
  const auto share = static_cast<u64>(std::ceil(
      oversub * static_cast<double>(footprint_pages) / static_cast<double>(devices)));
  return std::max<u64>(tenants * 16 * kChunkPages,
                       std::min<u64>(footprint_pages, share));
}

DeviceStack::DeviceStack(EventQueue& eq, const SystemConfig& sys,
                         const PolicyConfig& pol, u64 span_pages,
                         u64 capacity_pages, u32 device,
                         std::optional<StackTenancy> tenancy)
    : eq_(eq),
      tenancy_(std::move(tenancy)),
      recorder_(eq),
      driver_(eq, sys, pol, span_pages, capacity_pages) {
  recorder_.set_device(device);
  if (tenancy_) recorder_.set_tenant_table(&tenancy_->table);
  driver_.set_recorder(&recorder_);
  if (tenancy_)
    driver_.configure_tenancy(&tenancy_->table, tenancy_->mode, tenancy_->scope);
  // One policy instance per chain domain: a single domain unless the tenants
  // are partitioned, where stateful policies then run per tenant.
  for (u64 d = 0; d < driver_.chains().domains(); ++d)
    driver_.set_domain_policy(d, make_eviction_policy(pol, driver_.chains().chain(d)));
  driver_.set_prefetcher(make_prefetcher(pol));
}

void DeviceStack::retire_tenant(TenantId t, std::unique_ptr<Gpu> gpu) {
  retired_gpus_ += gpu->stats();
  // Order matters: the Gpu unregisters its shootdown handlers first, then
  // the driver surrenders every resident page (the tenant's used frames
  // return to zero), and only then can the arena slot detach.
  gpu.reset();
  driver_.detach_tenant(t);
  tenancy_->table.detach(t);
}

DeviceRunResult DeviceStack::result(u32 id, Cycle finish_cycle,
                                    bool completed) const {
  DeviceRunResult d;
  d.id = id;
  d.capacity_pages = driver_.capacity_pages();
  d.finish_cycle = finish_cycle;
  d.completed = completed;
  d.driver = driver_.stats();
  d.h2d_pages = driver_.h2d().units_moved();
  d.d2h_pages = driver_.d2h().units_moved();
  return d;
}

}  // namespace uvmsim
