// Adaptive-policy ablation: static CPPE vs static tree-prefetch vs the
// adaptive policy pair on pattern-shifting workloads (docs/policies.md).
//
// Not a paper figure — the paper evaluates each Table II application under
// one pattern family. This bench stresses the gap it leaves open: iterative
// applications whose kernels *change* family mid-run. Three composites
// (workloads/phase_shift.hpp) concatenate Table II generators over the same
// page range; no static policy is right for every phase, so the adaptive
// policy's online classifier (obs/phase_classifier.hpp) has something to buy.
//
// Reported per composite and per constituent phase (run standalone at the
// same capacity): finish cycles, page faults, h2d/d2h traffic. Adaptive rows
// add the confirmed phase-change timeline and strategy-switch counts.
//
// Expected shape: each static policy wins the phases it was built for and
// pays on the others; adaptive tracks the per-phase winner after the
// classifier's confirmation lag, so on composites it lands at or near the
// best static and never far behind the worst.
//
// `--smoke` runs composites only and gates (a ctest test, label smoke):
//   * adaptive cycles <= worst static * 1.05 on EVERY composite,
//   * adaptive cycles <= best static * 1.01 on >= 1 composite.
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/uvm_system.hpp"
#include "workloads/phase_shift.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

// All phases share one footprint so a standalone phase run at the same
// oversubscription rate gets exactly the composite's capacity.
constexpr u64 kPages = 2048;
constexpr double kOversub = 0.5;

std::vector<std::unique_ptr<PhaseShiftWorkload>> make_composites() {
  std::vector<std::unique_ptr<PhaseShiftWorkload>> out;
  {
    // Streaming scatter, then a long strided solve (NW-style): the locality
    // side should win phase 1, the pattern side phase 2.
    std::vector<std::unique_ptr<PatternWorkloadBase>> ph;
    ph.push_back(std::make_unique<StreamingWorkload>("stream", "ST", kPages, 1.0));
    ph.push_back(std::make_unique<StridedWorkload>("strided", "SD", kPages, 2, 6.0));
    out.push_back(std::make_unique<PhaseShiftWorkload>("stream+strided", "S>D",
                                                       std::move(ph)));
  }
  {
    // Cyclic thrashing, then a streaming drain: MHPE's MRU side should win
    // phase 1, plain LRU + chunk prefetch phase 2.
    std::vector<std::unique_ptr<PatternWorkloadBase>> ph;
    ph.push_back(std::make_unique<ThrashingWorkload>("thrash", "TH", kPages, 6.0));
    ph.push_back(std::make_unique<StreamingWorkload>("stream", "ST", kPages, 1.0));
    out.push_back(std::make_unique<PhaseShiftWorkload>("thrash+stream", "T>S",
                                                       std::move(ph)));
  }
  {
    // Strided solve, then a sliding sparse region (b+tree-style): pattern
    // buffer first, tree neighborhood prefetch second.
    std::vector<std::unique_ptr<PatternWorkloadBase>> ph;
    ph.push_back(std::make_unique<StridedWorkload>("strided", "SD", kPages, 4, 6.0));
    ph.push_back(std::make_unique<RegionMovingWorkload>("region", "RM", kPages,
                                                        0.2, 0.45));
    out.push_back(std::make_unique<PhaseShiftWorkload>("strided+region", "D>R",
                                                       std::move(ph)));
  }
  return out;
}

std::vector<std::pair<std::string, PolicyConfig>> make_policies() {
  PolicyConfig tree;
  tree.eviction_name = "lru";
  tree.prefetch_name = "tree";
  PolicyConfig adaptive;
  adaptive.eviction_name = "adaptive";
  adaptive.prefetch_name = "adaptive";
  return {{"cppe", presets::cppe()}, {"tree", tree}, {"adaptive", adaptive}};
}

RunResult run_one(const Workload& wl, const PolicyConfig& pol) {
  UvmSystem sys(SystemConfig{}, pol, wl, kOversub);
  return sys.run();
}

std::string phase_timeline(const RunResult& r) {
  if (!r.adaptive_used) return "-";
  std::string s;
  for (const auto& [cycle, phase] : r.adaptive_phase_history) {
    if (!s.empty()) s += " ";
    s += '@';
    s += std::to_string(cycle);
    s += "->";
    s += to_string(phase);
  }
  return s.empty() ? "none" : s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = parse_smoke(
      argc, argv, "abl_adaptive — adaptive policy vs static CPPE/tree",
      "composites only; gate: adaptive <= worst static * 1.05 everywhere "
      "and <= best static * 1.01 on >= 1 composite");

  print_header("Adaptive policy vs static CPPE / tree prefetch on "
               "pattern-shifting workloads",
               "adaptive extension (docs/policies.md) — not a paper figure");

  const auto composites = make_composites();
  const auto policies = make_policies();

  // Composite runs: every policy on every pattern-shifting workload.
  TextTable t({"workload", "policy", "cycles", "faults", "h2d", "d2h",
               "switches", "phase changes"});
  // [composite][policy] finish cycles for the smoke gate.
  std::vector<std::vector<u64>> cycles(composites.size());
  bool all_completed = true;
  for (std::size_t w = 0; w < composites.size(); ++w) {
    for (const auto& [label, pol] : policies) {
      const RunResult r = run_one(*composites[w], pol);
      all_completed = all_completed && r.completed;
      cycles[w].push_back(r.cycles);
      t.add_row({composites[w]->name(), label, std::to_string(r.cycles),
                 std::to_string(r.driver.page_faults),
                 std::to_string(r.h2d_pages), std::to_string(r.d2h_pages),
                 r.adaptive_used
                     ? std::to_string(r.adaptive_eviction_switches) + "/" +
                           std::to_string(r.adaptive_prefetch_switches)
                     : "-",
                 phase_timeline(r)});
    }
  }
  std::cout << t.str() << "\n";

  if (smoke) {
    if (!all_completed) {
      std::cout << "SMOKE FAIL: a run did not complete\n";
      return 1;
    }
    bool matched_best = false;
    for (std::size_t w = 0; w < composites.size(); ++w) {
      const u64 cppe = cycles[w][0], tree = cycles[w][1], adapt = cycles[w][2];
      const u64 best = std::min(cppe, tree), worst = std::max(cppe, tree);
      if (static_cast<double>(adapt) > static_cast<double>(worst) * 1.05) {
        std::cout << "SMOKE FAIL: adaptive loses to the worst static by >5% on "
                  << composites[w]->name() << " (" << adapt << " vs worst "
                  << worst << " cycles)\n";
        return 1;
      }
      if (static_cast<double>(adapt) <= static_cast<double>(best) * 1.01)
        matched_best = true;
    }
    if (!matched_best) {
      std::cout << "SMOKE FAIL: adaptive matched the best static policy on no "
                   "composite\n";
      return 1;
    }
    std::cout << "SMOKE OK: adaptive within 5% of the worst static everywhere "
                 "and at the best static on >= 1 composite\n";
    return 0;
  }

  // Per-phase breakdown: each constituent phase standalone, same capacity.
  // The per-phase winner flipping between policies is what makes the
  // composites above a genuine adaptation test.
  std::cout << "--- constituent phases, run standalone ---\n";
  TextTable p({"workload", "phase", "type", "policy", "cycles", "faults", "d2h"});
  for (const auto& comp : composites)
    for (const auto& phase : comp->phases())
      for (const auto& [label, pol] : policies) {
        const RunResult r = run_one(*phase, pol);
        p.add_row({comp->name(), phase->name(), roman(phase->pattern()),
                   label, std::to_string(r.cycles),
                   std::to_string(r.driver.page_faults),
                   std::to_string(r.d2h_pages)});
      }
  std::cout << p.str() << "\n";

  std::cout
      << "Reading the tables: each static policy wins the phases it was built\n"
         "for; the adaptive rows show when the classifier confirmed each phase\n"
         "change (cycle -> phase) and how often each side swapped strategy.\n";
  return 0;
}
