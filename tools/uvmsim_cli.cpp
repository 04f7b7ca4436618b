// uvmsim — command-line front end for single simulations.
//
// Run any Table II workload (or a recorded trace) under any eviction policy
// / prefetcher combination, with every paper threshold overridable:
//
//   uvmsim --workload NW --oversub 0.5 --eviction mhpe --prefetch pattern
//   uvmsim --workload SRD --eviction reserved --reserved 0.1
//   uvmsim --workload MVT --record-trace mvt.trc
//   uvmsim --trace mvt.trc --eviction lru --prefetch locality --csv
//   uvmsim --list
//
// Observability (docs/observability.md):
//
//   uvmsim --workload NW --oversub 0.5 --trace-out t.jsonl
//   uvmsim --workload NW --trace-out t.jsonl --trace-events fault_raised,eviction_chosen
//   uvmsim --workload NW --interval-metrics intervals.csv
//
// Multi-tenancy (docs/multitenancy.md):
//
//   uvmsim --tenants NW,BFS --oversub 0.5 --tenant-mode quota
//   uvmsim --tenants NW,BFS,MVT --tenant-mode shared --tenant-evict self
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/results_io.hpp"
#include "obs/interval_metrics.hpp"
#include "obs/trace_sink.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_workload.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += " | ";
    out += n;
  }
  return out;
}

// `trace_lines`: the events written to --trace-out.
void print_text(const RunResult& r, u64 trace_lines) {
  TextTable t({"metric", "value"});
  t.add_row({"workload", r.workload});
  t.add_row({"eviction / prefetcher", r.eviction_name + " / " + r.prefetcher_name});
  t.add_row({"oversubscription", fmt(r.oversub * 100, 0) + "% of footprint fits"});
  t.add_row({"footprint / capacity (pages)",
             std::to_string(r.footprint_pages) + " / " + std::to_string(r.capacity_pages)});
  t.add_row({"cycles", std::to_string(r.cycles)});
  t.add_row({"completed", r.completed ? "yes" : "NO (cycle cap hit)"});
  t.add_row({"page faults (coalesced)", std::to_string(r.driver.page_faults) + " (" +
                                            std::to_string(r.driver.faults_coalesced) + ")"});
  t.add_row({"driver migration ops", std::to_string(r.driver.migration_ops)});
  t.add_row({"pages in (demand/prefetch)",
             std::to_string(r.driver.pages_migrated_in) + " (" +
                 std::to_string(r.driver.pages_demanded) + "/" +
                 std::to_string(r.driver.pages_prefetched) + ")"});
  t.add_row({"pages evicted", std::to_string(r.driver.pages_evicted)});
  t.add_row({"H2D link utilisation", fmt(r.h2d_utilisation * 100, 1) + "%"});
  if (r.mhpe_used) {
    t.add_row({"MHPE strategy", r.mhpe_switched_to_lru ? "switched to LRU" : "stayed MRU"});
    t.add_row({"MHPE forward distance", std::to_string(r.mhpe_forward_distance)});
    t.add_row({"MHPE wrong evictions", std::to_string(r.mhpe_wrong_evictions)});
  }
  if (r.pattern_buffer_peak > 0) {
    t.add_row({"pattern buffer peak/capacity",
               std::to_string(r.pattern_buffer_peak) + "/" +
                   std::to_string(r.pattern_buffer_capacity)});
    t.add_row({"pattern match/mismatch", std::to_string(r.pattern_matches) + "/" +
                                             std::to_string(r.pattern_mismatches)});
    if (r.pattern_capacity_evictions > 0)
      t.add_row({"pattern capacity evictions",
                 std::to_string(r.pattern_capacity_evictions)});
  }
  if (r.adaptive_used) {
    t.add_row({"adaptive switches (evict/prefetch)",
               std::to_string(r.adaptive_eviction_switches) + "/" +
                   std::to_string(r.adaptive_prefetch_switches)});
    std::string phases;
    for (const auto& [at, p] : r.adaptive_phase_history) {
      if (!phases.empty()) phases += " -> ";
      phases += to_string(p);
    }
    t.add_row({"adaptive phase changes", phases.empty() ? "none" : phases});
  }
  if (r.large_pages) {
    t.add_row({"2MB coalesces / splinters",
               std::to_string(r.driver.coalesces) + " / " +
                   std::to_string(r.driver.splinters)});
    t.add_row({"2MB frames evicted whole",
               std::to_string(r.driver.large_frames_evicted)});
    t.add_row({"large TLB hits (L1/L2)",
               std::to_string(r.gpu.l1_tlb_large_hits) + "/" +
                   std::to_string(r.gpu.l2_tlb_large_hits)});
  }
  if (r.gpu_fault_backend) {
    t.add_row({"fault backend", r.fault_backend});
    t.add_row({"faults enqueued (queue-full)",
               std::to_string(r.faultsvc.faults_enqueued) + " (" +
                   std::to_string(r.faultsvc.queue_full_stalls) + ")"});
    t.add_row({"handler pickups / busy cycles",
               std::to_string(r.faultsvc.handler_pickups) + " / " +
                   std::to_string(r.faultsvc.handler_busy_cycles)});
    t.add_row({"max fault-queue depth",
               std::to_string(r.faultsvc.max_queue_depth)});
  }
  if (trace_lines > 0)
    t.add_row({"trace events recorded", std::to_string(trace_lines)});
  if (r.clamped_past > 0)
    t.add_row({"events clamped to now (BUG?)", std::to_string(r.clamped_past)});
  std::cout << t.str();
}

// --sim-stats: simulator-overhead counters (the cost of simulating, not the
// simulated cost — docs/performance.md). Off by default so the standard
// report stays byte-identical across simulator-internals changes.
void print_sim_stats(const RunResult& r) {
  TextTable t({"sim-perf metric", "value"});
  t.add_row({"events executed", std::to_string(r.sim.events_executed)});
  t.add_row({"event heap peak/capacity",
             std::to_string(r.sim.event_heap_peak) + "/" +
                 std::to_string(r.sim.event_heap_capacity)});
  t.add_row({"oversize (pooled) events", std::to_string(r.sim.oversize_events)});
  t.add_row({"chunk-chain slab slots", std::to_string(r.sim.chain_slab_capacity)});
  t.add_row({"page-table slots (load)",
             std::to_string(r.sim.page_table_capacity) + " (" +
                 fmt(r.sim.page_table_load, 3) + ")"});
  std::cout << "\nsimulator overhead:\n" << t.str();
  // Sharded-engine counters only exist under --engine sharded; omitting the
  // whole table otherwise keeps --engine seq output byte-identical.
  if (r.engine_stats.sharded) {
    TextTable e({"sharded-engine metric", "value"});
    e.add_row({"shards x threads",
               std::to_string(r.engine_stats.shards) + " x " +
                   std::to_string(r.engine_stats.threads)});
    e.add_row({"lookahead (cycles)",
               std::to_string(r.engine_stats.lookahead_cycles)});
    e.add_row({"barrier windows", std::to_string(r.engine_stats.windows)});
    e.add_row({"cross-shard messages",
               std::to_string(r.engine_stats.messages)});
    e.add_row({"stall windows (<=1 shard active)",
               std::to_string(r.engine_stats.stall_windows)});
    e.add_row({"barrier waits", std::to_string(r.engine_stats.barrier_waits)});
    e.add_row({"max end-of-window clock skew",
               std::to_string(r.engine_stats.max_skew)});
    std::cout << "\nsharded engine:\n" << e.str();
  }
}

void print_fabric(const RunResult& r) {
  TextTable t({"device", "capacity", "finish", "done", "faults", "remote",
               "peer in", "hopbacks", "fwd", "spilled", "h2d", "d2h"});
  for (const DeviceRunResult& d : r.devices)
    t.add_row({std::to_string(d.id), std::to_string(d.capacity_pages),
               std::to_string(d.finish_cycle), d.completed ? "yes" : "NO",
               std::to_string(d.driver.page_faults),
               std::to_string(d.driver.remote_accesses),
               std::to_string(d.driver.peer_fetches),
               std::to_string(d.driver.spill_hopbacks),
               std::to_string(d.driver.faults_forwarded),
               std::to_string(d.driver.pages_spilled),
               std::to_string(d.h2d_pages), std::to_string(d.d2h_pages)});
  std::cout << "\nper-device (" << r.fabric << " fabric, " << r.gpus
            << " GPUs):\n"
            << t.str();
  if (!r.links.empty()) {
    TextTable lt({"link", "units moved", "utilisation"});
    for (const LinkRunResult& l : r.links)
      lt.add_row({l.name, std::to_string(l.units_moved),
                  fmt(l.utilisation * 100, 1) + "%"});
    std::cout << "\nper-link:\n" << lt.str();
  }
}

void print_fabric_csv(const RunResult& r) {
  std::cout << "device,fabric,capacity_pages,finish_cycle,completed,"
               "page_faults,remote_accesses,peer_fetches,spill_hopbacks,"
               "faults_forwarded,chunks_spilled,pages_spilled,h2d_pages,"
               "d2h_pages\n";
  for (const DeviceRunResult& d : r.devices)
    std::cout << d.id << ',' << escape_csv(r.fabric) << ','
              << d.capacity_pages << ',' << d.finish_cycle << ',' << d.completed << ','
              << d.driver.page_faults << ',' << d.driver.remote_accesses << ','
              << d.driver.peer_fetches << ',' << d.driver.spill_hopbacks << ','
              << d.driver.faults_forwarded << ',' << d.driver.chunks_spilled
              << ',' << d.driver.pages_spilled << ',' << d.h2d_pages << ','
              << d.d2h_pages << "\n";
  std::cout << "link,units_moved,utilisation\n";
  for (const LinkRunResult& l : r.links)
    std::cout << escape_csv(l.name) << ',' << l.units_moved << ','
              << l.utilisation << "\n";
}

void print_fleet(const RunResult& r) {
  const FleetRunResult& fl = r.fleet;
  TextTable t({"fleet metric", "value"});
  t.add_row({"admission / scheduler", fl.admission + " / " + fl.scheduler});
  t.add_row({"devices x arrival rate",
             std::to_string(fl.devices) + " x " + fmt(fl.arrival_rate, 1) +
                 " jobs/Mcycle"});
  t.add_row({"jobs submitted / completed / rejected",
             std::to_string(fl.jobs_submitted) + " / " +
                 std::to_string(fl.jobs_completed) + " / " +
                 std::to_string(fl.jobs_rejected)});
  t.add_row({"rejections (queue-full/never-fits/policy)",
             std::to_string(fl.rejected_queue_full) + "/" +
                 std::to_string(fl.rejected_never_fits) + "/" +
                 std::to_string(fl.rejected_policy)});
  t.add_row({"rejection rate", fmt(fl.rejection_rate * 100, 2) + "%"});
  t.add_row({"goodput", fmt(fl.goodput, 3) + " jobs/Mcycle"});
  t.add_row({"queue wait mean / p95 (cycles)",
             fmt(fl.mean_queue_wait, 0) + " / " + fmt(fl.p95_queue_wait, 0)});
  t.add_row({"peak queue depth", std::to_string(fl.peak_queue_depth)});
  t.add_row({"slowdown mean / p50 / p95 / p99",
             fmt(fl.mean_slowdown, 2) + "x / " + fmt(fl.slowdown_p50, 2) +
                 "x / " + fmt(fl.slowdown_p95, 2) + "x / " +
                 fmt(fl.slowdown_p99, 2) + "x"});
  t.add_row({"windowed fairness min / mean",
             fmt(fl.fairness_min, 4) + " / " + fmt(fl.fairness_mean, 4)});
  std::cout << "\nfleet serving (" << fl.admission << " admission, "
            << fl.scheduler << " placement):\n"
            << t.str();

  TextTable d({"device", "capacity", "faults", "pages in", "evicted", "h2d",
               "d2h"});
  for (const DeviceRunResult& dev : r.devices)
    d.add_row({std::to_string(dev.id), std::to_string(dev.capacity_pages),
               std::to_string(dev.driver.page_faults),
               std::to_string(dev.driver.pages_migrated_in),
               std::to_string(dev.driver.pages_evicted),
               std::to_string(dev.h2d_pages), std::to_string(dev.d2h_pages)});
  std::cout << "\nper-device:\n" << d.str();
}

void print_fleet_csv(const RunResult& r) {
  const FleetRunResult& fl = r.fleet;
  std::cout << "admission,scheduler,devices,arrival_rate,jobs_submitted,"
               "jobs_completed,jobs_rejected,rejected_queue_full,"
               "rejected_never_fits,rejected_policy,peak_queue_depth,"
               "rejection_rate,goodput,mean_queue_wait,p95_queue_wait,"
               "mean_slowdown,slowdown_p50,slowdown_p95,slowdown_p99,"
               "fairness_min,fairness_mean\n"
            << escape_csv(fl.admission) << ',' << escape_csv(fl.scheduler)
            << ',' << fl.devices << ',' << fl.arrival_rate << ','
            << fl.jobs_submitted << ',' << fl.jobs_completed << ','
            << fl.jobs_rejected << ','
            << fl.rejected_queue_full << ',' << fl.rejected_never_fits << ','
            << fl.rejected_policy << ',' << fl.peak_queue_depth << ','
            << fl.rejection_rate << ',' << fl.goodput << ','
            << fl.mean_queue_wait << ',' << fl.p95_queue_wait << ','
            << fl.mean_slowdown << ',' << fl.slowdown_p50 << ','
            << fl.slowdown_p95 << ',' << fl.slowdown_p99 << ','
            << fl.fairness_min << ',' << fl.fairness_mean << "\n";
}

void print_tenants(const RunResult& r, bool have_solos) {
  TextTable t({"tenant", "workload", "quota", "finish", "done", "slowdown",
               "faults", "evicted", "by self", "by others", "of others"});
  for (const TenantRunResult& tr : r.tenants)
    t.add_row({std::to_string(tr.id), tr.workload,
               tr.quota_frames ? std::to_string(tr.quota_frames) : "-",
               std::to_string(tr.finish_cycle), tr.completed ? "yes" : "NO",
               have_solos ? fmt(tr.slowdown_vs_solo, 2) + "x" : "-",
               std::to_string(tr.stats.page_faults),
               std::to_string(tr.stats.pages_evicted),
               std::to_string(tr.stats.evicted_by_self),
               std::to_string(tr.stats.evicted_by_others),
               std::to_string(tr.stats.evictions_of_others)});
  std::cout << "\nper-tenant (" << r.tenant_mode << " mode):\n" << t.str();
  if (have_solos)
    std::cout << "Jain fairness index: " << fmt(r.jain_fairness, 4) << "\n";
}

void print_tenant_csv(const RunResult& r) {
  std::cout << "tenant,workload,tenant_mode,quota_frames,finish_cycle,"
               "completed,slowdown_vs_solo,jain_fairness,page_faults,"
               "pages_evicted,evicted_by_self,evicted_by_others,"
               "evictions_of_others\n";
  for (const TenantRunResult& tr : r.tenants)
    std::cout << tr.id << ',' << escape_csv(tr.workload) << ','
              << escape_csv(r.tenant_mode) << ',' << tr.quota_frames << ','
              << tr.finish_cycle << ',' << tr.completed << ','
              << tr.slowdown_vs_solo << ',' << r.jain_fairness << ','
              << tr.stats.page_faults << ',' << tr.stats.pages_evicted << ','
              << tr.stats.evicted_by_self << ',' << tr.stats.evicted_by_others
              << ',' << tr.stats.evictions_of_others << "\n";
}

void print_csv(const RunResult& r) {
  // The extra fault-backend columns appear only under --fault-backend
  // gpu-driven, so default CSV artefacts stay byte-identical.
  std::cout << "workload,eviction,prefetcher,oversub,cycles,completed,faults,"
               "migration_ops,pages_in,pages_demanded,pages_prefetched,"
               "pages_evicted,mhpe_switched,pattern_matches,pattern_mismatches";
  if (r.gpu_fault_backend)
    std::cout << ",fault_backend,faults_enqueued,queue_full_stalls,"
                 "handler_pickups,handler_busy_cycles,max_queue_depth";
  std::cout << "\n"
            << escape_csv(r.workload) << ',' << escape_csv(r.eviction_name)
            << ',' << escape_csv(r.prefetcher_name) << ',' << r.oversub << ','
            << r.cycles << ',' << r.completed << ',' << r.driver.page_faults
            << ',' << r.driver.migration_ops << ','
            << r.driver.pages_migrated_in << ',' << r.driver.pages_demanded << ','
            << r.driver.pages_prefetched << ',' << r.driver.pages_evicted << ','
            << r.mhpe_switched_to_lru << ',' << r.pattern_matches << ','
            << r.pattern_mismatches;
  if (r.gpu_fault_backend)
    std::cout << ',' << escape_csv(r.fault_backend) << ','
              << r.faultsvc.faults_enqueued << ',' << r.faultsvc.queue_full_stalls
              << ','
              << r.faultsvc.handler_pickups << ','
              << r.faultsvc.handler_busy_cycles << ','
              << r.faultsvc.max_queue_depth;
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli(
      "uvmsim — GPU unified-memory oversubscription simulator (CPPE, IPDPS'20)");
  const ExperimentSpec def;
  const std::string host(kFaultBackendNames.name(FaultBackendKind::kHostDriver));
  const std::string gpu_driven(kFaultBackendNames.name(FaultBackendKind::kGpuDriven));
  cli.add_option("workload",
                 "Table II abbreviation (see --list), or an extension: "
                 "BFR (BFS frontier), MLT (ML-training phases)", "NW");
  cli.add_option("trace", "replay a recorded trace file instead of a workload");
  cli.add_option("record-trace", "record the workload's streams to a file and exit");
  cli.add_option("oversub", "fraction of the footprint that fits in memory", "0.5");
  cli.add_option("eviction",
                 "eviction policy by registered name (--list-policies)", "mhpe");
  cli.add_option("prefetch",
                 "prefetcher by registered name (--list-policies)", "pattern");
  cli.add_choice("deletion", "pattern-buffer deletion", kDeletionNames,
                 def.policy.deletion);
  cli.add_option("reserved", "reserved-LRU protected fraction", "0.2");
  cli.add_option("t1", "MHPE per-interval untouch switch threshold", "32");
  cli.add_option("t2", "MHPE first-four-intervals switch threshold", "40");
  cli.add_option("t3", "MHPE forward-distance limit", "32");
  cli.add_option("interval", "interval length in migrated pages", "64");
  cli.add_option("fault-batch",
                 "pending faults drained per driver wakeup (1 = classic)", "1");
  cli.add_choice("fault-backend", "fault-service backend (docs/faultsvc.md)",
                 kFaultBackendNames, def.system.fault_backend);
  cli.add_option("fault-latency-us",
                 host + " backend: far-fault handling latency in microseconds", "20");
  cli.add_option("evict-service-us",
                 "driver service time per demand eviction in microseconds",
                 "2.5");
  cli.add_option("gpu-fault-queue-depth",
                 gpu_driven + " backend: per-SM fault queue depth", "32");
  cli.add_option("tenants",
                 "comma-separated workloads co-scheduled on one GPU, e.g. NW,BFS");
  cli.add_choice("tenant-mode", "frame-pool split", kTenantModeNames, def.tenant_mode);
  cli.add_choice("tenant-evict",
                 "victim scope in " +
                     std::string(kTenantModeNames.name(TenantMode::kShared)) + " mode",
                 kEvictionScopeNames, def.tenant_scope);
  cli.add_flag("no-solo", "skip the solo baselines (no slowdown/Jain output)");
  cli.add_flag("fleet",
               "fleet serving: open-loop job arrivals with admission control "
               "over --gpus devices (docs/fleet.md)");
  cli.add_option("jobs", "fleet: total jobs the arrival stream submits", "1000");
  cli.add_option("arrival-rate",
                 "fleet: offered load in jobs per million cycles", "20");
  cli.add_choice("admission", "fleet", kAdmissionNames, def.fleet.admission);
  cli.add_choice("fleet-sched", "fleet", kFleetSchedNames, def.fleet.scheduler);
  cli.add_option("arrival-trace",
                 "fleet: interarrival trace file (one gap per line) instead "
                 "of Poisson arrivals");
  cli.add_option("gpus", "number of GPUs on the NVLink fabric (>=2 enables it)", "1");
  cli.add_choice("fabric", "link topology", kFabricNames, def.fabric.topology);
  cli.add_choice("placement", "page homing", kPlacementNames, def.fabric.placement);
  cli.add_option("remote-threshold",
                 "remote accesses before a page migrates to the accessor "
                 "(0 = always migrate)", "4");
  cli.add_flag("spill", "evict to the least-loaded peer instead of the host");
  cli.add_choice("engine",
                 "simulation engine for multi-GPU fabric / fleet runs "
                 "(docs/performance.md)",
                 kEngineNames, def.engine.kind);
  cli.add_option("engine-threads",
                 std::string(kEngineNames.name(EngineKind::kSharded)) +
                     " engine worker threads (0 = hardware, capped at the shard "
                     "count)",
                 "0");
  cli.add_option("sms", "number of SMs", "28");
  cli.add_option("warps", "warps per SM", "8");
  cli.add_option("seed", "experiment seed", "24301");
  cli.add_option("pattern-capacity", "pattern-buffer capacity in entries", "1024");
  cli.add_option("trace-out", "write the flight-recorder event stream (JSONL) here");
  cli.add_option("trace-events",
                 "comma-separated event names to trace, or 'all' (see docs)", "all");
  cli.add_option("interval-metrics",
                 "write per-interval metrics here (.jsonl extension = JSONL, else CSV)");
  cli.add_flag("no-prefetch-when-full", "disable prefetching once memory fills");
  cli.add_flag("large-pages",
               "transparent 2 MB frames: coalesce fully-touched aligned "
               "regions, splinter under eviction pressure (docs/memory.md)");
  cli.add_flag("sim-stats",
               "append simulator-overhead counters (event heap, slab, hash "
               "sizing) to the report");
  cli.add_flag("csv", "emit one CSV row instead of the text report");
  cli.add_flag("list", "list the Table II workloads and exit");
  cli.add_flag("list-policies",
               "list the registered eviction policies / prefetchers and exit");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  if (cli.get_flag("list-policies")) {
    const auto& reg = PolicyRegistry::instance();
    std::cout << "eviction:  " << join_names(reg.eviction_names()) << "\n"
              << "prefetch:  " << join_names(reg.prefetch_names()) << "\n";
    return 0;
  }

  if (cli.get_flag("list")) {
    TextTable t({"abbr", "name", "suite", "type", "pages (scaled)"});
    for (const auto& b : benchmark_table())
      t.add_row({b.abbr, b.name, b.suite, to_string(b.type),
                 std::to_string(scaled_pages(b.paper_mb))});
    std::cout << t.str();
    return 0;
  }

  // Policies resolve by registered name only; unknown names list what IS
  // registered.
  const PolicyRegistry& reg = PolicyRegistry::instance();
  PolicyConfig pol;
  pol.eviction_name = cli.get("eviction");
  if (!reg.has_eviction(pol.eviction_name)) {
    std::cerr << "unknown eviction policy: " << pol.eviction_name
              << " (registered: " << join_names(reg.eviction_names()) << ")\n";
    return 2;
  }
  pol.prefetch_name = cli.get("prefetch");
  if (!reg.has_prefetch(pol.prefetch_name)) {
    std::cerr << "unknown prefetcher: " << pol.prefetch_name
              << " (registered: " << join_names(reg.prefetch_names()) << ")\n";
    return 2;
  }
  pol.deletion = cli.get_parsed("deletion", kDeletionNames);
  pol.reserved_fraction = cli.get_double("reserved", 0.0, 1.0);
  pol.t1_untouch = cli.get_u32("t1");
  pol.t2_untouch_first4 = cli.get_u32("t2");
  pol.t3_forward_limit = cli.get_u32("t3");
  pol.interval_faults = cli.get_u32("interval", 1);
  pol.pattern_buffer_entries = cli.get_u32("pattern-capacity");
  pol.seed = static_cast<u64>(cli.get_int("seed", 0));
  pol.prefetch_when_full = !cli.get_flag("no-prefetch-when-full");
  pol.large_pages = cli.get_flag("large-pages");
  pol.fault_batch = cli.get_u32("fault-batch", 1);

  const auto event_mask = parse_event_mask(cli.get("trace-events"));
  if (!event_mask)
    throw std::invalid_argument("unknown --trace-events value: " + cli.get("trace-events"));

  SystemConfig sys;
  sys.num_sms = cli.get_u32("sms", 1);
  sys.warps_per_sm = cli.get_u32("warps", 1);
  sys.fault_backend = cli.get_parsed("fault-backend", kFaultBackendNames);
  const double fault_latency_us = cli.get_double("fault-latency-us");
  if (fault_latency_us <= 0) {
    std::cerr << "--fault-latency-us must be > 0\n";
    return 2;
  }
  sys.fault_latency_us = fault_latency_us;
  const double evict_service_us = cli.get_double("evict-service-us");
  if (evict_service_us <= 0) {
    std::cerr << "--evict-service-us must be > 0\n";
    return 2;
  }
  sys.evict_service_us = evict_service_us;
  sys.gpu_fault_queue_depth = cli.get_u32("gpu-fault-queue-depth", 1);

  // One spec for every run shape; run_experiment refuses the shapes it
  // cannot honour. The CLI's runs are uncapped.
  ExperimentSpec spec;
  spec.workload = cli.get("workload");
  spec.policy = pol;
  spec.oversub = cli.get_double("oversub", 0.0);
  spec.system = sys;
  spec.engine.kind = cli.get_parsed("engine", kEngineNames);
  spec.engine.threads = cli.get_u32("engine-threads");
  spec.max_cycles = std::numeric_limits<Cycle>::max();

  if (cli.was_set("tenants")) {
    spec.tenants = split_list(cli.get("tenants"));
    if (spec.tenants.empty()) throw std::invalid_argument("--tenants lists no workload");
  }
  spec.tenant_mode = cli.get_parsed("tenant-mode", kTenantModeNames);
  spec.tenant_scope = cli.get_parsed("tenant-evict", kEvictionScopeNames);
  // Solo baseline: same workload alone on the tenant's SM slice at the
  // same oversubscription, so slowdown isolates memory-system
  // interference from the static SM split.
  spec.tenant_solo_baselines = !cli.get_flag("no-solo");

  // --gpus counts the fleet's devices, or else the fabric's GPUs.
  const u32 gpus = cli.get_u32("gpus", 1);
  FleetConfig& fl = spec.fleet;
  fl.enabled = cli.get_flag("fleet");
  if (fl.enabled) {
    if (cli.was_set("gpus")) fl.devices = gpus;
    if (cli.was_set("oversub")) fl.oversub = spec.oversub;
  } else {
    spec.fabric.gpus = gpus;
  }
  fl.jobs = static_cast<u64>(cli.get_int("jobs", 1));
  fl.arrival_rate = cli.get_double("arrival-rate");
  fl.admission = cli.get_parsed("admission", kAdmissionNames);
  fl.scheduler = cli.get_parsed("fleet-sched", kFleetSchedNames);
  fl.arrival_trace = cli.get("arrival-trace");

  FabricConfig& fab = spec.fabric;
  fab.topology = cli.get_parsed("fabric", kFabricNames);
  fab.placement = cli.get_parsed("placement", kPlacementNames);
  fab.remote_threshold = cli.get_u32("remote-threshold");
  fab.spill = cli.get_flag("spill");

  // Trace recording and interval metrics exist for one workload on one GPU;
  // run_experiment refuses a trace replay anywhere else.
  for (const char* flag : {"record-trace", "interval-metrics"}) {
    if (cli.was_set(flag) && (fl.enabled || fab.gpus >= 2 || !spec.tenants.empty()))
      throw std::invalid_argument(std::string("--") + flag +
                                  " applies to one workload on one GPU: not with "
                                  "--fleet, --tenants or --gpus >= 2");
  }

  std::unique_ptr<Workload> replay;
  if (cli.was_set("trace"))
    replay = std::make_unique<TraceWorkload>(load_trace(cli.get("trace")));

  if (cli.was_set("record-trace")) {
    const std::unique_ptr<Workload> workload =
        replay ? std::move(replay) : make_benchmark(spec.workload);
    const Trace t = record_trace(*workload, sys.num_sms * sys.warps_per_sm, pol.seed);
    save_trace(cli.get("record-trace"), t);
    u64 total = 0;
    for (const auto& s : t.streams) total += s.accesses.size();
    std::cout << "recorded " << t.streams.size() << " warp streams, " << total
              << " accesses -> " << cli.get("record-trace") << "\n";
    return 0;
  }

  // Output files open before the run; --trace-events filters the trace file
  // alone, so the run and its interval metrics see every event.
  const auto open_output = [&cli](std::ofstream& file, const char* flag) {
    if (!cli.was_set(flag)) return false;
    file.open(cli.get(flag));
    if (!file) throw std::runtime_error("cannot open " + cli.get(flag));
    return true;
  };
  std::ofstream trace_file;
  std::ofstream interval_file;
  std::optional<JsonlSink> trace_sink;
  IntervalMetricsSink interval_sink;
  std::vector<TraceSink*> sinks;
  if (open_output(trace_file, "trace-out"))
    sinks.push_back(&trace_sink.emplace(trace_file, *event_mask));
  const bool intervals = open_output(interval_file, "interval-metrics");
  if (intervals) sinks.push_back(&interval_sink);

  const RunResult r = run_experiment(spec, sinks, replay.get()).result;

  if (intervals) {
    if (cli.get("interval-metrics").ends_with(".jsonl"))
      interval_sink.write_jsonl(interval_file);
    else
      interval_sink.write_csv(interval_file);
  }

  if (cli.get_flag("csv")) {
    if (r.fleet.enabled) {
      print_fleet_csv(r);
    } else {
      print_csv(r);
      if (!r.tenants.empty()) print_tenant_csv(r);
      if (!r.devices.empty()) print_fabric_csv(r);
    }
  } else {
    if (r.fleet.enabled) {
      print_fleet(r);
    } else {
      print_text(r, trace_sink ? trace_sink->lines_written() : 0);
      if (!r.tenants.empty()) print_tenants(r, !cli.get_flag("no-solo"));
      if (!r.devices.empty()) print_fabric(r);
    }
    if (cli.get_flag("sim-stats")) print_sim_stats(r);
  }
  return r.completed ? 0 : 1;
} catch (const std::exception& e) {
  // Malformed option values and failed runs alike exit 2.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
