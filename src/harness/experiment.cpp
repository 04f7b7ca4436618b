#include "harness/experiment.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/uvm_system.hpp"
#include "fabric/fabric_system.hpp"
#include "fleet/fleet_system.hpp"
#include "obs/trace_sink.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {

LabelledResult run_experiment(const ExperimentSpec& spec) {
  const bool tenants = !spec.tenants.empty();
  if (spec.tenants.size() == 1)
    throw std::invalid_argument("a tenant run needs at least two workloads");
  if (tenants + (spec.fabric.gpus >= 2) + spec.fleet.enabled > 1)
    throw std::invalid_argument(
        "experiment sets more than one of tenants, fabric and fleet");
  if (tenants && spec.engine.kind == EngineKind::kSharded)
    throw std::invalid_argument(
        "the sharded engine does not support tenant runs (one shared driver "
        "cannot shard)");

  // Observability: stream the run's events to disk when requested. The sink
  // must outlive run(); the recorders only borrow it. Every system fans it
  // out to all of its recorders (device-stamped events interleave in
  // simulation order).
  std::ofstream trace_file;
  std::unique_ptr<JsonlSink> trace_sink;
  if (!spec.trace_out.empty()) {
    trace_file.open(spec.trace_out);
    if (!trace_file) throw std::runtime_error("cannot open trace file: " + spec.trace_out);
    trace_sink = std::make_unique<JsonlSink>(trace_file);
  }
  const auto attach_trace = [&](SystemBase& system) {
    system.set_event_mask(spec.trace_event_mask);
    if (trace_sink) system.add_sink(trace_sink.get());
  };

  if (spec.fleet.enabled) {
    FleetSystem system(spec.system, spec.policy, spec.fleet, spec.engine);
    attach_trace(system);
    return {spec, system.run(spec.max_cycles)};
  }

  if (tenants) {
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<const Workload*> ptrs;
    for (const std::string& abbr : spec.tenants) {
      workloads.push_back(make_benchmark(abbr));
      ptrs.push_back(workloads.back().get());
    }
    MultiTenantSystem system(spec.system, spec.policy, ptrs, spec.oversub,
                             spec.tenant_mode, spec.tenant_scope);
    attach_trace(system);
    LabelledResult out{spec, system.run(spec.max_cycles)};
    if (spec.tenant_solo_baselines) system.run_solo_baselines(out.result, spec.max_cycles);
    return out;
  }

  const auto workload = make_benchmark(spec.workload);
  if (spec.fabric.gpus >= 2) {
    FabricSystem system(spec.system, spec.policy, *workload, spec.oversub,
                        spec.fabric, spec.engine);
    attach_trace(system);
    return {spec, system.run(spec.max_cycles)};
  }
  UvmSystem system(spec.system, spec.policy, *workload, spec.oversub);
  attach_trace(system);
  return {spec, system.run(spec.max_cycles)};
}

}  // namespace uvmsim
