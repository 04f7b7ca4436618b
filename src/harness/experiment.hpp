// Experiment descriptor + single-run entry point. One experiment =
// (workload, policy configuration, oversubscription rate); runs are
// deterministic, so any sweep can be distributed over threads freely.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/uvm_system.hpp"
#include "fleet/fleet_config.hpp"
#include "obs/trace_sink.hpp"
#include "tenancy/tenant.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

struct ExperimentSpec {
  std::string workload;       ///< Table II abbreviation
  std::string label;          ///< display label, e.g. "CPPE", "LRU-20%"
  PolicyConfig policy;
  double oversub = 0.5;       ///< fraction of footprint that fits (0.75 / 0.5)
  SystemConfig system;
  Cycle max_cycles = 20'000'000'000ull;  ///< runaway-simulation safety net

  // --- Multi-tenancy (src/tenancy) -----------------------------------------
  /// Two or more workload abbreviations switch the experiment to a
  /// UvmSystem tenant run (`workload` above is then ignored for
  /// construction and only used as a display fallback); exactly one is
  /// refused.
  std::vector<std::string> tenants;
  TenantMode tenant_mode = TenantMode::kShared;
  EvictionScope tenant_scope = EvictionScope::kGlobal;
  /// Run each tenant's workload solo (same per-tenant SM slice, same
  /// oversubscription) to fill slowdown_vs_solo and the Jain index.
  bool tenant_solo_baselines = true;

  // --- Multi-GPU fabric (src/fabric) ---------------------------------------
  /// fabric.gpus >= 2 switches the experiment to a UvmSystem fabric run (one
  /// workload sharded over N devices). Mutually exclusive with `tenants`
  /// and `fleet`.
  FabricConfig fabric;

  // --- Simulation engine (src/sim/sharded_engine.hpp) ----------------------
  /// --engine sharded parallelises multi-GPU fabric and fleet runs (one
  /// shard per device, conservative barrier windows). A single-GPU run has
  /// one shard, which is the sequential engine; tenant runs refuse it.
  EngineConfig engine;

  // --- Fleet serving (src/fleet) -------------------------------------------
  /// fleet.enabled switches the experiment to a FleetSystem run (open-loop
  /// job arrivals over fleet.devices independent memory systems; `workload`
  /// and `oversub` above are ignored). Mutually exclusive with `tenants`
  /// and `fabric`.
  FleetConfig fleet;
};

/// Result annotated with its spec label.
struct LabelledResult {
  ExperimentSpec spec;
  RunResult result;
};

/// Build and run one experiment to completion: the one place a run is
/// built, refused and traced. Every sink in `sinks` sees every event of the
/// run (not of the tenant solo baselines) and is finished at its last
/// cycle; the sinks must outlive the call. `workload`, when given, replaces
/// make_benchmark(spec.workload), e.g. a trace replay.
///
/// Throws std::invalid_argument instead of running something other than
/// the spec asks for: when it sets more than one of `tenants`, `fabric`
/// (two or more GPUs) and `fleet`, lists exactly one tenant, asks for the
/// sharded engine on a tenant run, for spill under the sharded engine
/// outside a fleet, or passes a `workload` to anything but a single-GPU
/// run.
[[nodiscard]] LabelledResult run_experiment(const ExperimentSpec& spec,
                                            const std::vector<TraceSink*>& sinks = {},
                                            const Workload* workload = nullptr);

}  // namespace uvmsim
