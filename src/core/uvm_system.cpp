#include "core/uvm_system.hpp"

namespace uvmsim {

UvmSystem::UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
                     const Workload& workload, double oversub)
    : workload_(workload), oversub_(oversub) {
  const u64 footprint = workload.footprint_pages();
  DeviceStack& s = add_stack(0, sys, pol, footprint,
                             device_capacity(footprint, oversub));
  gpus_.push_back(std::make_unique<Gpu>(s.queue(), sys, s.driver(), workload_,
                                        pol.seed));
}

RunResult UvmSystem::run(Cycle max_cycles) {
  RunResult r = run_and_collect(gpus_, max_cycles);
  r.workload = workload_.abbr();
  r.oversub = oversub_;
  r.footprint_pages = workload_.footprint_pages();
  r.h2d_utilisation = driver().h2d().utilisation(r.cycles);
  collect_policy_introspection(r, driver());
  return r;
}

}  // namespace uvmsim
