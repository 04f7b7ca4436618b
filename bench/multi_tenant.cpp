// Multi-tenant interference matrix: workload pairs co-scheduled on one GPU
// under the three frame-sharing modes (docs/multitenancy.md), for the
// baseline and CPPE stacks.
//
// Not a paper figure — the paper studies a single workload per GPU. This
// bench extends its oversubscription model to consolidated GPUs: the same
// driver pipeline, with the frame pool and victim selection split by tenant.
//
// For every (pair, mode, stack) cell the harness runs the co-schedule plus
// one solo baseline per tenant (same SM slice, same oversubscription), and
// reports:
//   * per-tenant slowdown vs solo  — the interference each tenant suffers,
//   * Jain's fairness index        — 1.0 = perfectly even slowdowns,
//   * cross-tenant evictions       — chunks a tenant lost to the other's
//                                    faults (the interference mechanism).
//
// Expected shape: partitioned mode has zero cross-tenant evictions (victim
// selection never leaves the faulting tenant's quota) at the cost of the
// worst aggregate finish time; shared mode is fastest in aggregate but lets
// the heavier-faulting tenant evict its neighbour; quota mode sits between,
// sourcing victims from over-quota tenants first.
#include <iostream>

#include "bench_common.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct Cell {
  const char* a;
  const char* b;
};

void run_matrix(const std::string& stack, const PolicyConfig& pol,
                const std::vector<Cell>& pairs, double oversub) {
  const std::vector<std::pair<TenantMode, EvictionScope>> modes = {
      {TenantMode::kShared, EvictionScope::kGlobal},
      {TenantMode::kPartitioned, EvictionScope::kGlobal},
      {TenantMode::kQuota, EvictionScope::kGlobal},
  };

  std::vector<ExperimentSpec> specs;
  for (const Cell& c : pairs)
    for (const auto& [mode, scope] : modes) {
      ExperimentSpec s;
      s.workload = std::string(c.a) + "+" + c.b;
      s.label = kTenantModeNames.name(mode);
      s.policy = pol;
      s.oversub = oversub;
      s.tenants = {c.a, c.b};
      s.tenant_mode = mode;
      s.tenant_scope = scope;
      specs.push_back(std::move(s));
    }
  const auto results = run_sweep(specs);

  std::cout << "--- " << stack << " (" << fmt(oversub * 100, 0)
            << "% of combined footprint fits) ---\n";
  TextTable t({"tenants", "mode", "t0 slowdown", "t1 slowdown", "Jain",
               "cross evictions", "co-run cycles"});
  for (const auto& r : results) {
    const auto& ts = r.result.tenants;
    u64 cross = 0;
    for (const auto& tr : ts) cross += tr.stats.evicted_by_others;
    t.add_row({r.spec.workload, r.spec.label,
               ts[0].workload + " " + fmt(ts[0].slowdown_vs_solo) + "x",
               ts[1].workload + " " + fmt(ts[1].slowdown_vs_solo) + "x",
               fmt(r.result.jain_fairness, 3), std::to_string(cross),
               std::to_string(r.result.cycles)});
  }
  std::cout << t.str() << "\n";
}

}  // namespace

int main() {
  print_header("Multi-tenant oversubscription: interference and fairness",
               "consolidation extension (docs/multitenancy.md) — not a paper "
               "figure");

  // One streaming+repetitive pair (asymmetric pressure: the streaming tenant
  // floods the pool, the repetitive one owns the reuse the evictor should
  // protect) and one thrashing pair (symmetric worst case).
  const std::vector<Cell> pairs = {{"NW", "BFS"}, {"SRD", "MVT"}};

  run_matrix("baseline (LRU + locality prefetch)", presets::baseline(), pairs,
             0.5);
  run_matrix("CPPE (MHPE + pattern-aware prefetch)", presets::cppe(), pairs,
             0.5);

  std::cout
      << "Reading the table: slowdown is each tenant's co-run finish over its\n"
         "solo finish on the same SM slice at the same oversubscription, so\n"
         "it isolates memory-system interference. partitioned pins cross-\n"
         "tenant evictions at zero; shared trades fairness for aggregate\n"
         "throughput; quota evicts over-quota tenants first.\n";
  return 0;
}
