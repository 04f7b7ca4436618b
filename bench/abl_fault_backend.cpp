// Ablation: fault-service backend — classic host driver vs GPUVM-style
// GPU-driven paging (docs/faultsvc.md, arXiv 2411.05309).
//
// The host backend charges the paper's fixed 20 us round trip per fault
// batch; the GPU-driven backend replaces it with per-SM fault queues and a
// GPU-resident handler whose per-fault cost is an order of magnitude
// smaller but which serializes under bursts (handler occupancy) and drops
// to a spill path when a queue overflows. The interesting regime is
// irregular fault storms at high oversubscription: many SMs faulting at
// once, where the host round trip dominates the stall and the GPU handler's
// smaller constant wins despite queueing.
//
// Reported per (workload x backend x oversubscription): end-to-end cycles,
// faults, mean fault stall (fault_wait_cycles / page_faults), handler
// pickups/busy share and queue-overflow count.
//
// All runs use the demand-paging baseline preset: CPPE's prefetching fills
// the H2D link and hides the service latency behind transfer queueing, so
// the policy that isolates the fault path is the honest backend comparison.
//
// `--smoke` runs the irregular workloads at the high-oversubscription point
// only and gates (a ctest test, label smoke):
//   * every run completes,
//   * GPU-driven mean fault stall < host mean fault stall on BOTH irregular
//     workloads (BFS, BFR) at 0.5 — the GPUVM claim this backend exists to
//     reproduce. Runs are deterministic, so the gate is exact, not a margin.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

constexpr double kHighOversub = 0.5;  // half the footprint fits — stressed
constexpr double kMildOversub = 0.9;

[[nodiscard]] double mean_stall(const RunResult& r) {
  return r.driver.page_faults == 0
             ? 0.0
             : static_cast<double>(r.driver.fault_wait_cycles) /
                   static_cast<double>(r.driver.page_faults);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = parse_smoke(
      argc, argv, "abl_fault_backend — host-driver vs GPU-driven fault service",
      "irregular workloads at 0.5 only; gate: every run completes and "
      "gpu-driven mean fault stall < host on BFS and BFR at 0.5");

  print_header("Fault-service backend: host driver vs GPU-driven paging",
               "GPUVM-style extension (docs/faultsvc.md) — not a paper figure");

  // BFS/BFR are the irregular fault storms the GPU-driven backend targets;
  // NW (strided) and SRD (thrashing) check it does not regress the regular
  // patterns the paper's policies are built around.
  const std::vector<std::string> workloads =
      smoke ? std::vector<std::string>{"BFS", "BFR"}
            : std::vector<std::string>{"BFS", "BFR", "NW", "SRD"};
  const std::vector<double> oversubs =
      smoke ? std::vector<double>{kHighOversub}
            : std::vector<double>{kMildOversub, kHighOversub};

  std::vector<ExperimentSpec> specs;
  for (const auto& w : workloads)
    for (double ov : oversubs)
      for (const auto& backend : kFaultBackendNames.rows) {
        ExperimentSpec s;
        s.workload = w;
        s.label = backend.name;
        s.policy = presets::baseline();
        s.oversub = ov;
        s.system.fault_backend = backend.value;
        specs.push_back(std::move(s));
      }
  const auto results = run_sweep(specs);
  const ResultIndex idx(results);

  TextTable t({"workload", "oversub", "backend", "cycles", "faults",
               "mean stall", "pickups", "busy %", "q-full"});
  bool all_completed = true;
  for (const auto& w : workloads)
    for (double ov : oversubs)
      for (const auto& backend : kFaultBackendNames.rows) {
        const std::string label(backend.name);
        const RunResult& r = idx.at(w, label, ov);
        all_completed = all_completed && r.completed;
        const double busy =
            r.cycles == 0 ? 0.0
                          : 100.0 * static_cast<double>(r.faultsvc.handler_busy_cycles) /
                                static_cast<double>(r.cycles);
        t.add_row({w, fmt(ov, 2), label, std::to_string(r.cycles),
                   std::to_string(r.driver.page_faults),
                   fmt(mean_stall(r), 0),
                   r.gpu_fault_backend
                       ? std::to_string(r.faultsvc.handler_pickups)
                       : "-",
                   r.gpu_fault_backend ? fmt(busy, 1) : "-",
                   r.gpu_fault_backend
                       ? std::to_string(r.faultsvc.queue_full_stalls)
                       : "-"});
      }
  std::cout << t.str() << "\n";

  if (smoke) {
    if (!all_completed) {
      std::cout << "SMOKE FAIL: a run did not complete\n";
      return 1;
    }
    for (const std::string w : {"BFS", "BFR"}) {
      const auto stall = [&](FaultBackendKind k) {
        return mean_stall(idx.at(w, std::string(kFaultBackendNames.name(k)), kHighOversub));
      };
      const double host = stall(FaultBackendKind::kHostDriver);
      const double gpu = stall(FaultBackendKind::kGpuDriven);
      if (gpu >= host) {
        std::cout << "SMOKE FAIL: gpu-driven mean fault stall did not beat "
                     "the host driver on "
                  << w << " at " << fmt(kHighOversub, 2) << " (" << fmt(gpu, 0)
                  << " vs " << fmt(host, 0) << " cycles)\n";
        return 1;
      }
    }
    std::cout << "SMOKE OK: gpu-driven mean fault stall < host on BFS and "
                 "BFR at "
              << fmt(kHighOversub, 2) << "\n";
    return 0;
  }

  std::cout
      << "Reading the table: the host rows pay the fixed driver round trip per\n"
         "fault batch; gpu-driven rows trade it for queueing at the on-GPU\n"
         "handler. The gap is widest on the irregular workloads (BFS/BFR) at\n"
         "0.5, where fault storms amortise worst over the host round trip.\n";
  return 0;
}
