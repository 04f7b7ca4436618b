// uvmsim_report — run the headline evaluation and emit a self-contained
// Markdown report (tables + ASCII charts), the "did the reproduction hold"
// artefact you attach to a CI run.
//
//   uvmsim_report --out report.md
//   uvmsim_report --oversubs 0.5 --out -        (stdout)
//   uvmsim_report --tenants "NW+BFS;MVT+SRD" --out -   (adds fairness section)
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/policy_factory.hpp"
#include "harness/ascii_chart.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;

namespace {

std::vector<double> parse_rates(const std::string& s) {
  std::vector<double> out;
  for (const std::string& item : split_list(s)) out.push_back(std::stod(item));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("uvmsim_report — one-shot reproduction report (Markdown)");
  cli.add_option("out", "output path ('-' = stdout)", "-");
  cli.add_option("oversubs", "comma-separated oversubscription rates", "0.75,0.5");
  cli.add_option("tenants",
                 "';'-separated '+'-joined tenant groups (e.g. \"NW+BFS\") — "
                 "adds a multi-tenant fairness section");
  cli.add_option("tenant-modes", "comma-separated: shared,partitioned,quota",
                 "shared,partitioned,quota");
  cli.add_option("fabric",
                 "comma-separated GPU counts (e.g. 2,4) — adds a multi-GPU "
                 "fabric section (ring topology, spill on/off)");
  cli.add_option("large-pages",
                 "comma-separated workloads (e.g. SRD,HOT) — adds a 2 MB "
                 "large-frames off-vs-on section (docs/memory.md)");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const auto rates = parse_rates(cli.get("oversubs"));
  const std::vector<std::pair<std::string, PolicyConfig>> policies = {
      {"baseline", presets::baseline()}, {"Random", presets::random_evict()},
      {"LRU-10%", presets::reserved_lru(0.10)},
      {"LRU-20%", presets::reserved_lru(0.20)},
      {"CPPE", presets::cppe()}};

  std::vector<ExperimentSpec> specs;
  for (const auto& b : benchmark_table())
    for (double ov : rates)
      for (const auto& [label, pol] : policies) {
        ExperimentSpec s;
        s.workload = b.abbr;
        s.label = label;
        s.policy = pol;
        s.oversub = ov;
        specs.push_back(std::move(s));
      }
  std::cerr << "running " << specs.size() << " experiments...\n";
  const auto results =
      run_sweep(specs, static_cast<unsigned>(cli.get_int("threads")));

  // Index by (workload, label, rate).
  std::map<std::tuple<std::string, std::string, double>, const RunResult*> idx;
  for (const auto& r : results)
    idx[{r.spec.workload, r.spec.label, r.spec.oversub}] = &r.result;

  std::ostringstream md;
  md << "# uvmsim reproduction report\n\n"
     << "CPPE (MHPE + access-pattern-aware prefetch) vs the LRU+locality "
        "baseline and the Fig 9 alternatives.\n"
     << "Speedups are normalised to the baseline at the same "
        "oversubscription rate.\n\n";

  for (double ov : rates) {
    md << "## " << fmt(ov * 100, 0) << "% of footprint fits in GPU memory\n\n";
    md << "| workload | type | Random | LRU-10% | LRU-20% | CPPE |\n"
       << "|---|---|---|---|---|---|\n";
    std::map<std::string, std::vector<double>> sums;
    for (const auto& b : benchmark_table()) {
      const RunResult* base = idx[{b.abbr, "baseline", ov}];
      md << "| " << b.abbr << " | " << to_string(b.type);
      for (const char* p : {"Random", "LRU-10%", "LRU-20%", "CPPE"}) {
        const double sp = idx[{b.abbr, p, ov}]->speedup_vs(*base);
        sums[p].push_back(sp);
        md << " | " << fmt(sp) << "x";
      }
      md << " |\n";
    }
    md << "| **geomean** | ";
    for (const char* p : {"Random", "LRU-10%", "LRU-20%", "CPPE"})
      md << " | **" << fmt(geomean(sums[p])) << "x**";
    md << " |\n\n";

    BarChart chart("CPPE speedup over baseline", 1.0);
    for (const auto& b : benchmark_table())
      chart.add(b.abbr,
                idx[{b.abbr, "CPPE", ov}]->speedup_vs(*idx[{b.abbr, "baseline", ov}]));
    md << "```\n" << chart.str() << "```\n\n";
  }

  // Optional multi-tenant fairness section: tenant groups × sharing modes,
  // CPPE policy, first oversubscription rate. Off by default so the classic
  // report stays byte-identical.
  if (cli.was_set("tenants") && !rates.empty()) {
    const double ov = rates.front();
    std::vector<ExperimentSpec> tspecs;
    for (const auto& group : split_list(cli.get("tenants"), ';')) {
      const auto members = split_list(group, '+');
      if (members.size() < 2) {
        std::cerr << "tenant group needs >= 2 workloads: " << group << "\n";
        return 2;
      }
      for (const auto& mode_str : split_list(cli.get("tenant-modes"))) {
        const auto mode = parse_tenant_mode(mode_str);
        if (!mode) {
          std::cerr << "unknown tenant mode: " << mode_str << "\n";
          return 2;
        }
        ExperimentSpec s;
        s.workload = group;
        s.label = mode_str;
        s.policy = presets::cppe();
        s.oversub = ov;
        s.tenants = members;
        s.tenant_mode = *mode;
        tspecs.push_back(std::move(s));
      }
    }
    std::cerr << "running " << tspecs.size() << " multi-tenant experiments...\n";
    const auto tresults =
        run_sweep(tspecs, static_cast<unsigned>(cli.get_int("threads")));

    md << "## Multi-tenant fairness (CPPE, " << fmt(ov * 100, 0)
       << "% fits)\n\n"
       << "Slowdown is each tenant's finish time over its solo run on the "
          "same SM slice at the same oversubscription; Jain index is over "
          "the per-tenant rates (1 = perfectly fair).\n\n"
       << "| tenants | mode | per-tenant slowdown | Jain | cross-tenant "
          "evictions |\n|---|---|---|---|---|\n";
    for (const auto& r : tresults) {
      u64 cross = 0;
      std::string slow;
      for (const auto& t : r.result.tenants) {
        if (!slow.empty()) slow += ", ";
        slow += t.workload + " " + fmt(t.slowdown_vs_solo) + "x";
        cross += t.stats.evicted_by_others;
      }
      md << "| " << r.spec.workload << " | " << r.spec.label << " | " << slow
         << " | " << fmt(r.result.jain_fairness, 3) << " | " << cross
         << " |\n";
    }
    md << "\n";
  }

  // Optional multi-GPU fabric section: NW sharded over the requested GPU
  // counts, spill off vs on. Off by default so the classic report stays
  // byte-identical.
  if (cli.was_set("fabric") && !rates.empty()) {
    const double ov = rates.front();
    std::vector<ExperimentSpec> fspecs;
    for (const double gpus_d : parse_rates(cli.get("fabric"))) {
      const u32 gpus = static_cast<u32>(gpus_d);
      if (gpus < 2) {
        std::cerr << "--fabric GPU counts must be >= 2\n";
        return 2;
      }
      for (bool spill : {false, true}) {
        ExperimentSpec s;
        s.workload = "NW";
        s.label = std::to_string(gpus) + (spill ? "+spill" : "");
        s.policy = presets::cppe();
        s.oversub = ov;
        s.fabric.gpus = gpus;
        s.fabric.spill = spill;
        fspecs.push_back(std::move(s));
      }
    }
    std::cerr << "running " << fspecs.size() << " fabric experiments...\n";
    const auto fresults =
        run_sweep(fspecs, static_cast<unsigned>(cli.get_int("threads")));

    md << "## Multi-GPU fabric (NW, ring, " << fmt(ov * 100, 0)
       << "% fits)\n\n"
       << "One workload sharded over N GPUs (docs/fabric.md); d2h counts "
          "host write-backs, which eviction spill-to-peer retargets over "
          "NVLink.\n\n"
       << "| gpus | spill | cycles | h2d | d2h | remote | peer in | spilled "
          "|\n|---|---|---|---|---|---|---|---|\n";
    for (const auto& r : fresults)
      md << "| " << r.result.gpus << " | "
         << (r.spec.fabric.spill ? "on" : "off") << " | " << r.result.cycles
         << " | " << r.result.h2d_pages << " | " << r.result.d2h_pages
         << " | " << r.result.driver.remote_accesses << " | "
         << r.result.driver.peer_fetches << " | "
         << r.result.driver.pages_spilled << " |\n";
    md << "\n";
  }

  // Optional large-pages section: the requested workloads at the first
  // oversubscription rate, CPPE with 2 MB frames off vs on. Off by default
  // so the classic report stays byte-identical.
  if (cli.was_set("large-pages") && !rates.empty()) {
    const double ov = rates.front();
    std::vector<ExperimentSpec> lspecs;
    for (const auto& abbr : split_list(cli.get("large-pages"))) {
      for (bool lp : {false, true}) {
        ExperimentSpec s;
        s.workload = abbr;
        s.label = lp ? "2MB" : "4KB";
        s.policy = presets::cppe();
        s.policy.large_pages = lp;
        s.oversub = ov;
        lspecs.push_back(std::move(s));
      }
    }
    std::cerr << "running " << lspecs.size() << " large-pages experiments...\n";
    const auto lresults =
        run_sweep(lspecs, static_cast<unsigned>(cli.get_int("threads")));

    md << "## 2 MB large frames (CPPE, " << fmt(ov * 100, 0) << "% fits)\n\n"
       << "Transparent 2 MB frames (docs/memory.md): fully-touched aligned "
          "regions coalesce into one TLB entry off the fault critical path "
          "and splinter back under partial eviction pressure. DMA ops is "
          "migration_ops + demand + pre-evictions (whole-frame evictions "
          "are one op).\n\n"
       << "| workload | frames | cycles | L1 TLB hit % | large hits | DMA "
          "ops | coalesce/splinter/whole-evict |\n"
          "|---|---|---|---|---|---|---|\n";
    for (const auto& r : lresults) {
      const RunResult& x = r.result;
      const u64 l1 = x.gpu.l1_tlb_hits + x.gpu.l1_tlb_misses;
      const double hit =
          l1 == 0 ? 0.0
                  : 100.0 * static_cast<double>(x.gpu.l1_tlb_hits) /
                        static_cast<double>(l1);
      md << "| " << r.spec.workload << " | " << r.spec.label << " | "
         << x.cycles << " | " << fmt(hit, 1) << " | "
         << x.gpu.l1_tlb_large_hits << " | "
         << x.driver.migration_ops + x.driver.demand_evictions +
                x.driver.pre_evictions
         << " | " << x.driver.coalesces << "/" << x.driver.splinters << "/"
         << x.driver.large_frames_evicted << " |\n";
    }
    md << "\n";
  }

  md << "## Health indicators\n\n";
  u64 incomplete = 0;
  for (const auto& r : results)
    if (!r.result.completed) ++incomplete;
  md << "- experiments: " << results.size() << ", incomplete: " << incomplete
     << "\n- all runs deterministic (seeded); see EXPERIMENTS.md for "
        "paper-vs-measured analysis\n";

  if (cli.get("out") == "-") {
    std::cout << md.str();
  } else {
    std::ofstream os(cli.get("out"));
    if (!os) {
      std::cerr << "cannot open " << cli.get("out") << "\n";
      return 2;
    }
    os << md.str();
    std::cerr << "wrote " << cli.get("out") << "\n";
  }
  return incomplete == 0 ? 0 : 1;
}
