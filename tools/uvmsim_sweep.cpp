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
#include <stdexcept>

#include "core/policy_factory.hpp"
#include "core/policy_registry.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/results_io.hpp"
#include "harness/runner.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;

namespace {

/// The --policies presets: the paper's named configurations
/// (core/policy_factory.hpp).
using Preset = PolicyConfig (*)();
constexpr auto kPresets = name_table<Preset>({
    {"baseline", presets::baseline},
    {"cppe", presets::cppe},
    {"cppe-s1", presets::cppe_scheme1},
    {"random", presets::random_evict},
    {"reserved10", [] { return presets::reserved_lru(0.10); }},
    {"reserved20", [] { return presets::reserved_lru(0.20); }},
    {"hpe", presets::hpe},
    {"demand", presets::demand_only},
    {"noprefetch-full", presets::disable_prefetch_when_full},
});

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("uvmsim_sweep — run a policy/workload/oversubscription grid");
  cli.add_option("workloads", "comma-separated Table II abbreviations", "all");
  cli.add_option("policies",
                 "comma-separated presets (" + kPresets.choices(",") +
                     ") and/or registry pairs <eviction>/<prefetch>, e.g. "
                     "adaptive/adaptive (names: uvmsim --list-policies)",
                 "baseline,cppe");
  cli.add_option("oversubs", "comma-separated oversubscription rates", "0.75,0.5");
  cli.add_option("tenants",
                 "';'-separated tenant groups of '+'-joined workloads, e.g. "
                 "\"NW+BFS;MVT+SRD\" (replaces --workloads)");
  const std::string modes = kTenantModeNames.choices(",");
  cli.add_option("tenant-modes", "comma-separated: " + modes, modes);
  cli.add_choice("tenant-evict",
                 std::string(kTenantModeNames.name(TenantMode::kShared)) +
                     "-mode victim scope",
                 kEvictionScopeNames, ExperimentSpec{}.tenant_scope);
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
    if (const auto preset = kPresets.value(p)) {
      policies.emplace_back(p, (*preset)());
      continue;
    }
    // "<eviction>/<prefetch>" — both halves resolved by registered name,
    // so out-of-tree registrations sweep like any preset.
    const auto slash = p.find('/');
    PolicyConfig pol;
    pol.eviction_name = p.substr(0, slash);
    pol.prefetch_name = slash == std::string::npos ? "" : p.substr(slash + 1);
    const auto& reg = PolicyRegistry::instance();
    if (!reg.has_eviction(pol.eviction_name) || !reg.has_prefetch(pol.prefetch_name))
      throw std::invalid_argument("--policies: expected a preset (" + kPresets.choices() +
                                  ") or a registered <eviction>/<prefetch> pair, got '" +
                                  p + "'");
    policies.emplace_back(p, pol);
  }
  const auto oversubs = cli.get_list("oversubs", 0.0);

  // The grid's rows, each crossed with every rate and policy: tenant groups
  // x modes, or one workload each.
  std::vector<ExperimentSpec> rows;
  if (cli.was_set("tenants")) {
    const EvictionScope scope = cli.get_parsed("tenant-evict", kEvictionScopeNames);
    rows = tenant_specs(cli);
    for (ExperimentSpec& row : rows) row.tenant_scope = scope;
  } else {
    for (const auto& w : workloads) rows.emplace_back().workload = w;
  }
  std::vector<ExperimentSpec> specs;
  for (const ExperimentSpec& row : rows)
    for (const double ov : oversubs)
      for (const auto& [label, pol] : policies) {
        ExperimentSpec s = row;
        s.label = row.label.empty() ? label : label + "/" + row.label;
        s.policy = pol;
        s.oversub = ov;
        specs.push_back(std::move(s));
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
