#include "harness/experiment.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/uvm_system.hpp"
#include "fleet/fleet_system.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {

LabelledResult run_experiment(const ExperimentSpec& spec,
                              const std::vector<TraceSink*>& sinks,
                              const Workload* workload) {
  const bool tenants = !spec.tenants.empty();
  const bool fabric = spec.fabric.gpus >= 2;
  const bool sharded = spec.engine.kind == EngineKind::kSharded;
  if (spec.tenants.size() == 1)
    throw std::invalid_argument("a tenant run needs at least two workloads");
  if (tenants + fabric + spec.fleet.enabled > 1)
    throw std::invalid_argument(
        "experiment sets more than one of tenants, fabric and fleet");
  if (sharded && tenants)
    throw std::invalid_argument(
        "the sharded engine does not support tenant runs (one shared driver "
        "cannot shard)");
  if (spec.fabric.spill && (!fabric || sharded))
    throw std::invalid_argument(
        "spill needs a fabric run (--gpus >= 2) on the sequential engine (a "
        "victim moves to a peer GPU; the sharded engine keeps chunks on their "
        "device)");
  if (workload != nullptr && (tenants || fabric || spec.fleet.enabled))
    throw std::invalid_argument("a caller-built workload runs on one GPU only");

  // Every system fans the sinks out to all of its recorders
  // (device-stamped events interleave in simulation order).
  const auto run_traced = [&](auto& system) {
    for (TraceSink* sink : sinks) system.add_sink(sink);
    return LabelledResult{spec, system.run(spec.max_cycles)};
  };

  if (spec.fleet.enabled) {
    FleetSystem system(spec.system, spec.policy, spec.fleet, spec.engine);
    return run_traced(system);
  }

  if (tenants) {
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<const Workload*> ptrs;
    for (const std::string& abbr : spec.tenants) {
      workloads.push_back(make_benchmark(abbr));
      ptrs.push_back(workloads.back().get());
    }
    UvmSystem system(spec.system, spec.policy, ptrs, spec.oversub,
                     spec.tenant_mode, spec.tenant_scope);
    LabelledResult out = run_traced(system);
    if (spec.tenant_solo_baselines) system.run_solo_baselines(out.result, spec.max_cycles);
    return out;
  }

  const std::unique_ptr<Workload> built =
      workload != nullptr ? nullptr : make_benchmark(spec.workload);
  UvmSystem system(spec.system, spec.policy,
                   workload != nullptr ? *workload : *built, spec.oversub,
                   spec.fabric, spec.engine);
  return run_traced(system);
}

}  // namespace uvmsim
