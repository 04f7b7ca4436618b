// Inefficiency 1 (paper §III): HPE's per-chunk counters are polluted when
// prefetching is enabled — a whole-chunk prefetch sets the counter to chunk
// size, so irregular applications are misclassified as regular and HPE
// picks the wrong eviction strategy. MHPE replaces the counter signal with
// untouch levels of evicted chunks and is immune.
//
// This bench runs HPE and MHPE (both with the locality prefetcher, isolating
// the eviction policy) and prints HPE's classification next to the speedups.
#include <iostream>

#include "bench_common.hpp"
#include "core/uvm_system.hpp"
#include "policy/hpe.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

const char* category_name(HpePolicy::Category c) {
  switch (c) {
    case HpePolicy::Category::kUnknown: return "unknown";
    case HpePolicy::Category::kRegular: return "regular";
    case HpePolicy::Category::kIrregular1: return "irregular#1";
    case HpePolicy::Category::kIrregular2: return "irregular#2";
  }
  return "?";
}

/// Run HPE directly so its classification is observable.
std::pair<RunResult, HpePolicy::Category> run_hpe(const std::string& abbr) {
  const auto wl = make_benchmark(abbr);
  UvmSystem sys(SystemConfig{}, presets::hpe(), *wl, 0.5);
  RunResult r = sys.run();
  const auto* hpe = dynamic_cast<const HpePolicy*>(&sys.driver().policy());
  return {r, hpe != nullptr ? hpe->category() : HpePolicy::Category::kUnknown};
}

}  // namespace

int main() {
  print_header("Inefficiency 1: HPE with prefetching vs MHPE",
               "Section III (motivation) — reproduced as a bench");

  // Irregular / sparse apps: with untouched prefetched pages, HPE *should*
  // treat them as irregular, but counter pollution reports them regular.
  const std::vector<std::string> workloads = {"NW", "MVT", "BFS", "B+T", "HYB",
                                              "SRD", "HSD", "2DC"};

  const auto results = run_sweep(cross(workloads,
                                       {{"baseline", presets::baseline()},
                                        {"MHPE+locality",
                                         [] {
                                           PolicyConfig c = presets::baseline();
                                           c.eviction_name = "mhpe";
                                           return c;
                                         }()}},
                                       {0.5}));
  const ResultIndex idx(results);

  TextTable t({"workload", "type", "HPE class (prefetch on)", "HPE vs LRU",
               "MHPE vs LRU"});
  for (const auto& w : workloads) {
    const auto [hpe_result, category] = run_hpe(w);
    const RunResult& lru = idx.at(w, "baseline", 0.5);
    t.add_row({w, type_of(w), category_name(category),
               fmt(hpe_result.speedup_vs(lru)) + "x",
               fmt(idx.at(w, "MHPE+locality", 0.5).speedup_vs(lru)) + "x"});
  }
  std::cout << t.str()
            << "\nCounter pollution: every row classifies as 'regular' under"
               " whole-chunk prefetching,\nincluding the irregular Type III/VI"
               " apps — HPE then applies MRU-C where LRU was needed.\n";
  return 0;
}
