// uvmsim_sweep — run the full evaluation grid (or a filtered subset) across
// all cores and export CSV/JSON for plotting.
//
//   uvmsim_sweep --out results.csv
//   uvmsim_sweep --workloads NW,MVT,SRD --oversubs 0.75,0.5 --json results.json
//
// Multi-tenant grids: tenant groups are '+'-joined workloads separated by
// ';' and crossed with --tenant-modes; per-tenant rows land in --tenant-out.
//
//   uvmsim_sweep --tenants "NW+BFS;MVT+SRD" --tenant-modes shared,quota
//                --out results.csv --tenant-out tenants.csv
#include <exception>
#include <iostream>

#include "core/policy_factory.hpp"
#include "core/policy_registry.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/results_io.hpp"
#include "harness/runner.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;

int main(int argc, char** argv) try {
  CliParser cli("uvmsim_sweep — run a policy/workload/oversubscription grid");
  cli.add_option("workloads", "comma-separated Table II abbreviations", "all");
  cli.add_option("policies",
                 "comma-separated presets (baseline,cppe,cppe-s1,random,"
                 "reserved10,reserved20,hpe,demand,noprefetch-full) and/or "
                 "registry pairs <eviction>/<prefetch>, e.g. adaptive/adaptive "
                 "(names: uvmsim --list-policies)",
                 "baseline,cppe");
  cli.add_option("oversubs", "comma-separated oversubscription rates", "0.75,0.5");
  cli.add_option("tenants",
                 "';'-separated tenant groups of '+'-joined workloads, e.g. "
                 "\"NW+BFS;MVT+SRD\" (replaces --workloads)");
  cli.add_option("tenant-modes", "comma-separated: shared,partitioned,quota",
                 "shared,partitioned,quota");
  cli.add_option("tenant-evict", "shared-mode victim scope: global | self",
                 "global");
  cli.add_option("tenant-out", "per-tenant CSV output path");
  cli.add_option("out", "CSV output path (empty = stdout table)");
  cli.add_option("json", "JSON output path");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const auto workloads = cli.get("workloads") == "all"
                             ? benchmark_abbrs()
                             : split_list(cli.get("workloads"));
  std::vector<std::pair<std::string, PolicyConfig>> policies;
  for (const auto& p : split_list(cli.get("policies"))) {
    if (p == "baseline") policies.emplace_back(p, presets::baseline());
    else if (p == "cppe") policies.emplace_back(p, presets::cppe());
    else if (p == "cppe-s1") policies.emplace_back(p, presets::cppe_scheme1());
    else if (p == "random") policies.emplace_back(p, presets::random_evict());
    else if (p == "reserved10") policies.emplace_back(p, presets::reserved_lru(0.10));
    else if (p == "reserved20") policies.emplace_back(p, presets::reserved_lru(0.20));
    else if (p == "hpe") policies.emplace_back(p, presets::hpe());
    else if (p == "demand") policies.emplace_back(p, presets::demand_only());
    else if (p == "noprefetch-full")
      policies.emplace_back(p, presets::disable_prefetch_when_full());
    else if (const auto slash = p.find('/'); slash != std::string::npos) {
      // "<eviction>/<prefetch>" — both halves resolved by registered name,
      // so out-of-tree registrations sweep like any preset.
      PolicyConfig pol;
      pol.eviction_name = p.substr(0, slash);
      pol.prefetch_name = p.substr(slash + 1);
      const auto& reg = PolicyRegistry::instance();
      if (!reg.has_eviction(pol.eviction_name)) {
        std::cerr << "unknown eviction policy in pair '" << p << "': "
                  << pol.eviction_name << "\n";
        return 2;
      }
      if (!reg.has_prefetch(pol.prefetch_name)) {
        std::cerr << "unknown prefetcher in pair '" << p << "': "
                  << pol.prefetch_name << "\n";
        return 2;
      }
      policies.emplace_back(p, pol);
    } else {
      std::cerr << "unknown policy preset: " << p
                << " (presets, or a <eviction>/<prefetch> registry pair)\n";
      return 2;
    }
  }

  std::vector<double> oversubs;
  for (const auto& item : split_list(cli.get("oversubs")))
    oversubs.push_back(parse_double("--oversubs", item, 0.0));

  std::vector<ExperimentSpec> specs;
  if (cli.was_set("tenants")) {
    const auto scope = parse_eviction_scope(cli.get("tenant-evict"));
    if (!scope) {
      std::cerr << "unknown --tenant-evict: " << cli.get("tenant-evict") << "\n";
      return 2;
    }
    for (const auto& group : split_list(cli.get("tenants"), ';')) {
      const auto members = split_list(group, '+');
      if (members.size() < 2) {
        std::cerr << "tenant group needs >= 2 workloads: " << group << "\n";
        return 2;
      }
      for (const auto& mode_str : split_list(cli.get("tenant-modes")))
        for (const double ov : oversubs)
          for (const auto& [label, pol] : policies) {
            const auto mode = parse_tenant_mode(mode_str);
            if (!mode) {
              std::cerr << "unknown tenant mode: " << mode_str << "\n";
              return 2;
            }
            ExperimentSpec s;
            s.workload = group;
            s.label = label + "/" + mode_str;
            s.policy = pol;
            s.oversub = ov;
            s.tenants = members;
            s.tenant_mode = *mode;
            s.tenant_scope = *scope;
            specs.push_back(std::move(s));
          }
    }
  } else {
    for (const auto& w : workloads)
      for (const double ov : oversubs)
        for (const auto& [label, pol] : policies) {
          ExperimentSpec s;
          s.workload = w;
          s.label = label;
          s.policy = pol;
          s.oversub = ov;
          specs.push_back(std::move(s));
        }
  }

  std::cerr << "running " << specs.size() << " experiments...\n";
  const auto results = run_sweep(specs, cli.get_u32("threads"));

  if (cli.was_set("out")) {
    save_csv(cli.get("out"), results);
    std::cerr << "wrote " << cli.get("out") << "\n";
  }
  if (cli.was_set("json")) {
    save_json(cli.get("json"), results);
    std::cerr << "wrote " << cli.get("json") << "\n";
  }
  if (cli.was_set("tenant-out")) {
    save_tenant_csv(cli.get("tenant-out"), results);
    std::cerr << "wrote " << cli.get("tenant-out") << "\n";
  }
  if (!cli.was_set("out") && !cli.was_set("json")) {
    TextTable t({"workload", "label", "oversub", "cycles", "faults", "pages in",
                 "pages evicted"});
    for (const auto& r : results)
      t.add_row({r.result.workload, r.spec.label, fmt(r.result.oversub),
                 std::to_string(r.result.cycles),
                 std::to_string(r.result.driver.page_faults),
                 std::to_string(r.result.driver.pages_migrated_in),
                 std::to_string(r.result.driver.pages_evicted)});
    std::cout << t.str();
  }
  return 0;
} catch (const std::exception& e) {
  // Malformed option values and failed runs alike exit 2.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
