// Experiment descriptor + single-run entry point. One experiment =
// (workload, policy configuration, oversubscription rate); runs are
// deterministic, so any sweep can be distributed over threads freely.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/uvm_system.hpp"
#include "fleet/fleet_config.hpp"
#include "tenancy/tenant.hpp"

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
  /// MultiTenantSystem run (`workload` above is then ignored for
  /// construction and only used as a display fallback).
  std::vector<std::string> tenants;
  TenantMode tenant_mode = TenantMode::kShared;
  EvictionScope tenant_scope = EvictionScope::kGlobal;
  /// Run each tenant's workload solo (same per-tenant SM slice, same
  /// oversubscription) to fill slowdown_vs_solo and the Jain index.
  bool tenant_solo_baselines = true;

  // --- Multi-GPU fabric (src/fabric) ---------------------------------------
  /// fabric.gpus >= 2 switches the experiment to a FabricSystem run (one
  /// workload sharded over N devices). Mutually exclusive with `tenants`
  /// and `fleet`.
  FabricConfig fabric;

  // --- Simulation engine (src/sim/sharded_engine.hpp) ----------------------
  /// --engine sharded parallelises multi-GPU fabric and fleet runs (one
  /// shard per device, conservative barrier windows); ignored — with the
  /// sequential single shard — for single-GPU and multi-tenant runs.
  EngineConfig engine;

  // --- Fleet serving (src/fleet) -------------------------------------------
  /// fleet.enabled switches the experiment to a FleetSystem run (open-loop
  /// job arrivals over fleet.devices independent memory systems; `workload`
  /// and `oversub` above are ignored). Mutually exclusive with `tenants`
  /// and `fabric`.
  FleetConfig fleet;

  // --- Observability hooks (src/obs) ---------------------------------------
  /// When non-empty, the run's full event stream is written here as JSONL
  /// (filtered by trace_event_mask) — any bench can dump a timeline by
  /// setting a path.
  std::string trace_out;
  u32 trace_event_mask = kAllEventsMask;
};

/// Result annotated with its spec label.
struct LabelledResult {
  ExperimentSpec spec;
  RunResult result;
};

/// Build and run one experiment to completion. Throws
/// std::invalid_argument when the spec sets more than one of `tenants`
/// (two or more), `fabric` (two or more GPUs) and `fleet`.
[[nodiscard]] LabelledResult run_experiment(const ExperimentSpec& spec);

}  // namespace uvmsim
