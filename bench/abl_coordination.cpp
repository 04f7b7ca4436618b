// Ablation: is the *coordination* the point, or do MHPE and the pattern-
// aware prefetcher work alone? Full cross of eviction policies and
// prefetchers on representative workloads at 50% oversubscription,
// normalised to the baseline (LRU + locality).
//
//   LRU + pattern    = prefetcher without MHPE's eviction decisions
//   MHPE + locality  = eviction policy without pattern-aware prefetch
//   MHPE + pattern   = CPPE
//
// The tree-based neighborhood prefetcher (the CUDA driver's scheme per
// Ganguly et al.) is included as an extra prefetching baseline.
#include <iostream>

#include "bench_common.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

int main() {
  print_header("Ablation: eviction x prefetcher cross (50% oversubscription)",
               "design-choice ablation (DESIGN.md) — not a paper figure");

  const std::vector<std::string> workloads = {"2DC", "NW", "MVT", "SRD", "HIS", "B+T"};
  std::vector<std::pair<std::string, PolicyConfig>> policies;
  // {registered name, printed label}
  using Named = std::pair<const char*, const char*>;
  for (const auto& [ev, ev_label] : {Named{"lru", "LRU"}, Named{"mhpe", "MHPE"}}) {
    for (const auto& [pf, pf_label] :
         {Named{"locality", "locality"}, Named{"tree", "tree"},
          Named{"pattern", "pattern-aware"}}) {
      PolicyConfig c;
      c.eviction_name = ev;
      c.prefetch_name = pf;
      policies.emplace_back(std::string(ev_label) + "+" + pf_label, c);
    }
  }
  const auto results = run_sweep(cross(workloads, policies, {0.5}));
  const ResultIndex idx(results);

  std::vector<std::string> headers = {"config"};
  for (const auto& w : workloads) headers.push_back(w);
  headers.push_back("geomean");
  TextTable t(std::move(headers));

  for (const auto& [label, pol] : policies) {
    std::vector<std::string> row = {label};
    std::vector<double> sps;
    for (const auto& w : workloads) {
      const double sp =
          idx.at(w, label, 0.5).speedup_vs(idx.at(w, "LRU+locality", 0.5));
      sps.push_back(sp);
      row.push_back(fmt(sp) + "x");
    }
    row.push_back(fmt(geomean(sps)) + "x");
    t.add_row(std::move(row));
  }
  std::cout << t.str()
            << "\nExpected: MHPE+pattern (CPPE) >= either component alone;"
               " LRU+pattern helps only strided apps;\nMHPE+locality helps only"
               " thrashing apps — the coordination covers both.\n";
  return 0;
}
