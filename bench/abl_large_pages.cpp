// Large-pages ablation: transparent 2 MB frames off vs on (docs/memory.md).
//
// Not a paper figure — CPPE manages memory at 4 KB/64 KB granularity only.
// This bench measures what Mosaic-style lazy coalescing adds on top: one
// representative workload per Table II pattern family runs at 90% residency
// (regions must be fully resident to coalesce; the quarter-scaled footprints
// make a 512-page region a large fraction of device memory) with 2 MB frames
// off and on, reporting translation cost (L1 TLB hit rate, large-entry hits,
// walker cycles), migration cost (DMA ops = migration_ops + demand + pre-
// evictions; a whole-frame eviction is one op), and the coalesce/splinter/
// whole-evict lifecycle counts. A multi-tenant churn scenario (two tenants
// under quota mode, cross-tenant eviction pressure) checks that slot-bound
// regions survive churn: runs complete and frames still coalesce even while
// tenants steal frames from each other.
//
// Expected shape: workloads that fully touch 512-page regions between
// evictions (the big dense footprints — SRD, HOT, PAT, HWL) coalesce and
// see higher TLB hit rates with fewer walker cycles; workloads whose
// regions are never all-resident (NW) or whose residency never stabilises
// (B+T) show zero coalesces and byte-identical-to-off behaviour.
//
// `--smoke` runs the dense/streaming subset + churn only and gates (a ctest
// test, label smoke):
//   * every run completes, and with 2 MB frames on, frames actually coalesce,
//   * L1 TLB hit rate (on) >= (off) for every smoke workload,
//   * total DMA ops (on) <= (off) for every smoke workload.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/uvm_system.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

// Regions only coalesce while fully resident, so the ablation runs near
// residency: 90% fits.
constexpr double kOversub = 0.9;

struct Cell {
  std::string workload;
  bool large = false;
  RunResult result;
};

Cell run_cell(const std::string& abbr, bool large_pages) {
  PolicyConfig pol = presets::cppe();
  pol.large_pages = large_pages;
  const auto wl = make_benchmark(abbr);
  UvmSystem sys(SystemConfig{}, pol, *wl, kOversub);
  return Cell{abbr, large_pages, sys.run()};
}

double l1_hit_pct(const RunResult& r) {
  const u64 total = r.gpu.l1_tlb_hits + r.gpu.l1_tlb_misses;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(r.gpu.l1_tlb_hits) /
                          static_cast<double>(total);
}

u64 dma_ops(const RunResult& r) {
  return r.driver.migration_ops + r.driver.demand_evictions +
         r.driver.pre_evictions;
}

void print_rows(const std::vector<Cell>& cells) {
  TextTable t({"workload", "type", "frames", "cycles", "L1 TLB hit%",
               "large hits", "walk cycles", "DMA ops", "h2d", "d2h",
               "coal/splin/whole"});
  for (const Cell& c : cells) {
    const RunResult& r = c.result;
    t.add_row({c.workload, type_of(c.workload), c.large ? "2MB" : "4KB",
               std::to_string(r.cycles), fmt(l1_hit_pct(r), 2),
               std::to_string(r.gpu.l1_tlb_large_hits),
               std::to_string(r.gpu.walk_cycles), std::to_string(dma_ops(r)),
               std::to_string(r.h2d_pages), std::to_string(r.d2h_pages),
               std::to_string(r.driver.coalesces) + "/" +
                   std::to_string(r.driver.splinters) + "/" +
                   std::to_string(r.driver.large_frames_evicted)});
  }
  std::cout << t.str() << "\n";
}

// Multi-tenant churn: two tenants under quota mode borrow from each other
// and evict each other's frames, so bound 2 MB slots are repeatedly broken
// up and reclaimed. Coalescing never crosses tenants (namespaces are
// 512-page aligned); the scenario checks the machinery survives the churn.
RunResult run_churn(bool large_pages) {
  PolicyConfig pol = presets::cppe();
  pol.large_pages = large_pages;
  const auto a = make_benchmark("SRD");
  const auto b = make_benchmark("HOT");
  const std::vector<const Workload*> tenants = {a.get(), b.get()};
  UvmSystem sys(SystemConfig{}, pol, tenants, kOversub, TenantMode::kQuota,
                EvictionScope::kGlobal);
  return sys.run();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = parse_smoke(
      argc, argv, "abl_large_pages — transparent 2 MB frames off vs on",
      "dense/streaming subset + tenant churn only; gate: runs complete, "
      "frames coalesce, L1 TLB hit rate does not drop and total DMA ops "
      "(migration_ops + demand + pre-evictions) do not rise with 2 MB "
      "frames on");

  print_header("Transparent 2 MB frames: coalesce/splinter ablation",
               "Mosaic-style extension (docs/memory.md) — not a paper figure");

  // Dense/streaming workloads that can hold a full 512-page region resident
  // at 90% fits; the smoke gate runs exactly these.
  const std::vector<std::string> dense = {"SRD", "HOT"};
  // Representatives of the remaining pattern families for the full table.
  // Some coalesce a few frames (PAT, HWL fully touch a region between
  // evictions); NW (4 regions, never all-resident) and B+T (region-moving,
  // residency never stabilises) pin the "stays at 4 KB" side of the design.
  const std::vector<std::string> others = {"PAT", "NW", "HWL", "B+T"};

  std::vector<Cell> cells;
  bool all_completed = true;
  bool any_coalesced = false;
  bool tlb_ok = true, dma_ok = true;
  for (const auto& w : dense) {
    const Cell off = run_cell(w, false);
    const Cell on = run_cell(w, true);
    all_completed = all_completed && off.result.completed && on.result.completed;
    any_coalesced = any_coalesced || on.result.driver.coalesces > 0;
    if (l1_hit_pct(on.result) < l1_hit_pct(off.result)) tlb_ok = false;
    if (dma_ops(on.result) > dma_ops(off.result)) dma_ok = false;
    cells.push_back(off);
    cells.push_back(on);
  }
  if (!smoke) {
    for (const auto& w : others) {
      const Cell off = run_cell(w, false);
      const Cell on = run_cell(w, true);
      all_completed =
          all_completed && off.result.completed && on.result.completed;
      cells.push_back(off);
      cells.push_back(on);
    }
  }
  print_rows(cells);

  // Churn scenario: quota-mode tenants evicting each other.
  const RunResult churn_off = run_churn(false);
  const RunResult churn_on = run_churn(true);
  all_completed = all_completed && churn_off.completed && churn_on.completed;
  TextTable ct({"tenants", "frames", "cycles", "L1 TLB hit%", "DMA ops",
                "coal/splin/whole", "cross-tenant evictions"});
  for (const RunResult* r : {&churn_off, &churn_on}) {
    u64 cross = 0;
    for (const auto& t : r->tenants) cross += t.stats.evicted_by_others;
    ct.add_row({r->workload, r->large_pages ? "2MB" : "4KB",
                std::to_string(r->cycles), fmt(l1_hit_pct(*r), 2),
                std::to_string(dma_ops(*r)),
                std::to_string(r->driver.coalesces) + "/" +
                    std::to_string(r->driver.splinters) + "/" +
                    std::to_string(r->driver.large_frames_evicted),
                std::to_string(cross)});
  }
  std::cout << "--- multi-tenant churn (quota mode) ---\n" << ct.str() << "\n";

  if (smoke) {
    if (!all_completed) {
      std::cout << "SMOKE FAIL: a run did not complete\n";
      return 1;
    }
    if (!any_coalesced) {
      std::cout << "SMOKE FAIL: no 2 MB frame ever coalesced on the dense "
                   "subset\n";
      return 1;
    }
    if (!tlb_ok) {
      std::cout << "SMOKE FAIL: L1 TLB hit rate dropped with 2 MB frames on\n";
      return 1;
    }
    if (!dma_ok) {
      std::cout << "SMOKE FAIL: total DMA ops rose with 2 MB frames on\n";
      return 1;
    }
    std::cout << "SMOKE OK: frames coalesce, TLB hit rate does not drop, "
                 "DMA ops do not rise\n";
    return 0;
  }

  std::cout
      << "Reading the table: rows that hold fully-touched 512-page regions\n"
         "resident coalesce and serve translations from 2 MB entries (higher\n"
         "hit rate, fewer walker cycles) while whole-frame evictions batch\n"
         "write-backs into single DMA ops; rows whose regions are never\n"
         "all-resident (NW) or never stabilise (B+T) stay at 4 KB unchanged.\n";
  return 0;
}
