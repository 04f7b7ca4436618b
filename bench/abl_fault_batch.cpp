// Ablation: driver fault-batch window (--fault-batch). The real CUDA
// driver drains its whole fault buffer per wakeup; the simulator's window
// controls how many backlogged faults one driver operation may service.
//
// Under demand paging (no prefetcher) every fault is its own one-page plan,
// so with a narrow service path (concurrency 1 -> a real backlog) widening
// the window merges more plans per migration: migration ops fall
// monotonically and the mean per-fault service latency drops with them.
//
// Under whole-chunk prefetching (baseline/CPPE) the chunk itself is the
// batch: all 16 faults of a chunk are already absorbed into one in-flight
// plan at window 1, so the window leaves ops unchanged — the second table
// shows that equivalence, which is why classic window=1 traces stay
// byte-identical.
#include <iostream>

#include "bench_common.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

void sweep_stack(const std::string& stack, const PolicyConfig& base_pol) {
  // One streaming (type I) and one thrashing (type IV) workload: batching
  // must amortise ops on both ends of the reuse spectrum.
  const std::vector<std::string> workloads = {"2DC", "SRD"};
  std::vector<std::pair<std::string, PolicyConfig>> policies;
  for (u32 window : {1u, 2u, 4u, 8u, 16u}) {
    PolicyConfig c = presets::with_fault_batch(base_pol, window);
    c.driver_concurrency = 1;  // narrow service path -> real backlog
    policies.emplace_back("window=" + std::to_string(window), c);
  }
  const auto results = run_sweep(cross(workloads, policies, {0.5}));
  const ResultIndex idx(results);

  std::cout << "--- " << stack << " (driver_concurrency=1, 50% oversub) ---\n";
  TextTable t({"workload", "window", "migration ops", "pages in",
               "mean fault latency (cy)", "speedup vs window=1"});
  for (const auto& w : workloads) {
    const auto& base = idx.at(w, "window=1", 0.5);
    for (const auto& [label, pol] : policies) {
      const RunResult& r = idx.at(w, label, 0.5);
      const u64 faults = r.driver.page_faults ? r.driver.page_faults : 1;
      t.add_row({w, label, std::to_string(r.driver.migration_ops),
                 std::to_string(r.driver.pages_migrated_in),
                 std::to_string(r.driver.fault_wait_cycles / faults),
                 fmt(r.speedup_vs(base)) + "x"});
    }
  }
  std::cout << t.str() << "\n";
}

}  // namespace

int main() {
  print_header("Ablation: fault-batch window (faults drained per driver wakeup)",
               "design-choice ablation (DESIGN.md) — not a paper figure");

  std::cout << "Demand paging: every fault is a one-page plan, so the window\n"
               "directly sets how many faults one migration op amortises.\n\n";
  sweep_stack("demand-only (LRU, no prefetch)", presets::demand_only());

  std::cout << "Whole-chunk prefetching: a chunk's 16 faults already collapse\n"
               "into one plan at window 1 (coalescing), so ops are flat — the\n"
               "window adds nothing the prefetcher has not amortised.\n\n";
  sweep_stack("CPPE (MHPE + pattern prefetch)", presets::cppe());
  return 0;
}
