#include "harness/results_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <variant>

namespace uvmsim {
namespace {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `s` as one CSV cell: quoted, with its quotes doubled, when it holds a
/// comma, a quote or a newline; unchanged otherwise.
std::string escape_csv(std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) return std::string(s);
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// One output column. Each result slice lists its columns once; every CSV and
/// JSON writer renders a list, or a subset picked by name, through put().
struct Field {
  std::string_view name;
  std::variant<std::string_view, bool, u64, double> value;
};
using Fields = std::vector<Field>;

Fields operator+(Fields a, const Fields& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// The fields of `all` named in `names`, in order; "out=in" renames `in`.
Fields pick(const Fields& all, std::initializer_list<std::string_view> names) {
  Fields out;
  for (const std::string_view n : names) {
    const std::size_t eq = n.find('=');
    const std::string_view from = eq == std::string_view::npos ? n : n.substr(eq + 1);
    const auto it = std::find_if(all.begin(), all.end(),
                                 [from](const Field& f) { return f.name == from; });
    if (it == all.end()) throw std::logic_error("results: no field " + std::string(from));
    out.push_back({n.substr(0, eq), it->value});
  }
  return out;
}

enum class Render { kHeader, kCsv, kJson };

/// Comma-separated names (a CSV header), values (a CSV row) or "name":value
/// JSON members. The one cell rule: strings through escape_csv or escape_json,
/// booleans 1/0 in CSV and true/false in JSON, integers in decimal, and
/// doubles in the shortest form that reads back exactly (std::to_chars).
std::ostream& put(std::ostream& os, const Fields& fields, Render how) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << (i ? "," : "");
    if (how == Render::kHeader) os << fields[i].name;
    if (how == Render::kJson) os << '"' << fields[i].name << "\":";
    if (how == Render::kHeader) continue;
    std::visit(
        [&os, how](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string_view>)
            os << (how == Render::kCsv ? escape_csv(v) : '"' + escape_json(v) + '"');
          else if constexpr (std::is_same_v<T, bool>)
            os << (how == Render::kCsv ? (v ? "1" : "0") : (v ? "true" : "false"));
          else if constexpr (std::is_same_v<T, double>) {
            char buf[32];
            os << std::string_view(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
          } else
            os << v;
        },
        fields[i].value);
  }
  return os;
}

std::string render(const Fields& fields, Render how) {
  std::ostringstream os;
  put(os, fields, how);
  return os.str();
}

/// A CSV table: the header from a default item's fields, one row per item.
template <typename Item, typename ToFields>
void put_table(std::ostream& os, const std::vector<Item>& items, ToFields fields) {
  put(os, fields(Item{}), Render::kHeader) << '\n';
  for (const Item& item : items) put(os, fields(item), Render::kCsv) << '\n';
}

/// ,"name":[{...},...]: one JSON object per item.
template <typename Item, typename ToFields>
void put_json_array(std::ostream& os, std::string_view name,
                    const std::vector<Item>& items, ToFields fields) {
  os << ",\"" << name << "\":[";
  for (std::size_t i = 0; i < items.size(); ++i)
    put(os << (i ? ",{" : "{"), fields(items[i]), Render::kJson) << '}';
  os << ']';
}

/// Run: the sweep CSV's columns.
Fields run_fields(const RunResult& x, std::string_view label) {
  const DriverStats& d = x.driver;
  return {{"workload", x.workload}, {"label", label}, {"eviction", x.eviction_name},
          {"prefetcher", x.prefetcher_name}, {"oversub", x.oversub}, {"cycles", x.cycles},
          {"completed", x.completed}, {"page_faults", d.page_faults},
          {"faults_coalesced", d.faults_coalesced}, {"migration_ops", d.migration_ops},
          {"pages_in", d.pages_migrated_in}, {"pages_demanded", d.pages_demanded},
          {"pages_prefetched", d.pages_prefetched}, {"pages_evicted", d.pages_evicted},
          {"chunks_evicted", d.chunks_evicted}, {"h2d_pages", x.h2d_pages},
          {"d2h_pages", x.d2h_pages}, {"mhpe_used", x.mhpe_used},
          {"mhpe_switched_to_lru", x.mhpe_switched_to_lru},
          {"mhpe_forward_distance", x.mhpe_forward_distance},
          {"mhpe_wrong_evictions", x.mhpe_wrong_evictions},
          {"pattern_buffer_peak", x.pattern_buffer_peak},
          {"pattern_matches", x.pattern_matches},
          {"pattern_mismatches", x.pattern_mismatches},
          {"final_chain_length", x.final_chain_length}};
}

/// Tenant: identity and TenantStats, with the run's mode and Jain index.
Fields tenant_fields(const RunResult& x, const TenantRunResult& t) {
  const TenantStats& s = t.stats;
  return {{"tenant_mode", x.tenant_mode}, {"tenant", t.id},
          {"tenant_workload", t.workload}, {"footprint_pages", t.footprint_pages},
          {"quota_frames", t.quota_frames}, {"finish_cycle", t.finish_cycle},
          {"completed", t.completed}, {"slowdown_vs_solo", t.slowdown_vs_solo},
          {"jain_fairness", x.jain_fairness}, {"page_faults", s.page_faults},
          {"faults_coalesced", s.faults_coalesced}, {"pages_in", s.pages_migrated_in},
          {"pages_demanded", s.pages_demanded}, {"pages_prefetched", s.pages_prefetched},
          {"pages_evicted", s.pages_evicted}, {"chunks_evicted", s.chunks_evicted},
          {"evicted_by_self", s.evicted_by_self},
          {"evicted_by_others", s.evicted_by_others},
          {"evictions_of_others", s.evictions_of_others},
          {"fault_wait_cycles", s.fault_wait_cycles}};
}

/// Device: one GPU of a fabric or fleet run.
Fields device_fields(const DeviceRunResult& d) {
  const DriverStats& s = d.driver;
  return {{"id", d.id}, {"capacity_pages", d.capacity_pages},
          {"finish_cycle", d.finish_cycle}, {"completed", d.completed},
          {"page_faults", s.page_faults}, {"pages_in", s.pages_migrated_in},
          {"pages_evicted", s.pages_evicted}, {"remote_accesses", s.remote_accesses},
          {"peer_fetches", s.peer_fetches}, {"spill_hopbacks", s.spill_hopbacks},
          {"faults_forwarded", s.faults_forwarded}, {"chunks_spilled", s.chunks_spilled},
          {"pages_spilled", s.pages_spilled}, {"h2d_pages", d.h2d_pages},
          {"d2h_pages", d.d2h_pages}};
}

/// Fabric: the topology every device of a fabric run shares.
Fields fabric_fields(const RunResult& x) {
  return {{"fabric", x.fabric}, {"gpus", x.gpus}};
}

Fields link_fields(const LinkRunResult& l) {
  return {{"name", l.name}, {"units_moved", l.units_moved},
          {"utilisation", l.utilisation}};
}

/// Fleet: the SLA aggregates of a fleet run.
Fields fleet_fields(const FleetRunResult& f) {
  return {{"admission", f.admission}, {"scheduler", f.scheduler}, {"devices", f.devices},
          {"arrival_rate", f.arrival_rate}, {"jobs_submitted", f.jobs_submitted},
          {"jobs_completed", f.jobs_completed}, {"jobs_rejected", f.jobs_rejected},
          {"rejected_queue_full", f.rejected_queue_full},
          {"rejected_never_fits", f.rejected_never_fits},
          {"rejected_policy", f.rejected_policy},
          {"peak_queue_depth", f.peak_queue_depth}, {"rejection_rate", f.rejection_rate},
          {"goodput", f.goodput}, {"mean_queue_wait", f.mean_queue_wait},
          {"p95_queue_wait", f.p95_queue_wait}, {"mean_slowdown", f.mean_slowdown},
          {"slowdown_p50", f.slowdown_p50}, {"slowdown_p95", f.slowdown_p95},
          {"slowdown_p99", f.slowdown_p99}, {"fairness_min", f.fairness_min},
          {"fairness_mean", f.fairness_mean}};
}

/// Fault backend: the GPU-driven backend's counters (docs/faultsvc.md).
Fields backend_fields(const RunResult& x) {
  const FaultBackendStats& s = x.faultsvc;
  return {{"fault_backend", x.fault_backend}, {"faults_enqueued", s.faults_enqueued},
          {"queue_full_stalls", s.queue_full_stalls},
          {"handler_pickups", s.handler_pickups},
          {"handler_busy_cycles", s.handler_busy_cycles},
          {"max_queue_depth", s.max_queue_depth}};
}

/// The per-tenant CSV row: the run's identity, then the tenant slice.
Fields tenant_row(const RunResult& x, std::string_view label, const TenantRunResult& t) {
  return pick(run_fields(x, label),
              {"workload", "label", "eviction", "prefetcher", "oversub"}) +
         tenant_fields(x, t);
}

/// The fleet CSV row: the label and policies, the fleet slice, the makespan.
Fields fleet_row(const RunResult& x, std::string_view label) {
  const Fields run = run_fields(x, label);
  return pick(run, {"label", "eviction", "prefetcher"}) + fleet_fields(x.fleet) +
         pick(run, {"cycles"});
}

}  // namespace

std::string results_csv_header() { return render(run_fields({}, {}), Render::kHeader); }

std::string to_csv_row(const LabelledResult& r) {
  return render(run_fields(r.result, r.spec.label), Render::kCsv);
}

void write_csv(std::ostream& os, const std::vector<LabelledResult>& results) {
  os << results_csv_header() << '\n';
  for (const auto& r : results) os << to_csv_row(r) << '\n';
  if (!os) throw std::runtime_error("results: CSV write failed");
}

std::string tenant_csv_header() {
  return render(tenant_row({}, {}, {}), Render::kHeader);
}

void write_tenant_csv(std::ostream& os, const std::vector<LabelledResult>& results) {
  os << tenant_csv_header() << '\n';
  for (const auto& r : results)
    for (const TenantRunResult& t : r.result.tenants)
      put(os, tenant_row(r.result, r.spec.label, t), Render::kCsv) << '\n';
  if (!os) throw std::runtime_error("results: tenant CSV write failed");
}

std::string fleet_csv_header() { return render(fleet_row({}, {}), Render::kHeader); }

void write_fleet_csv(std::ostream& os, const std::vector<LabelledResult>& results) {
  os << fleet_csv_header() << '\n';
  for (const auto& r : results)
    if (r.result.fleet.enabled)
      put(os, fleet_row(r.result, r.spec.label), Render::kCsv) << '\n';
  if (!os) throw std::runtime_error("results: fleet CSV write failed");
}

void write_run_csv(std::ostream& os, const RunResult& x) {
  Fields totals = fleet_fields(x.fleet);
  if (!x.fleet.enabled) {
    totals = pick(run_fields(x, {}),
                  {"workload", "eviction", "prefetcher", "oversub", "cycles", "completed",
                   "faults=page_faults", "migration_ops", "pages_in", "pages_demanded",
                   "pages_prefetched", "pages_evicted",
                   "mhpe_switched=mhpe_switched_to_lru", "pattern_matches",
                   "pattern_mismatches"});
    // The fault-backend columns appear only under the GPU-driven backend.
    if (x.gpu_fault_backend) totals = totals + backend_fields(x);
  }
  put(os, totals, Render::kHeader) << '\n';
  put(os, totals, Render::kCsv) << '\n';
  if (x.fleet.enabled) return;
  if (!x.tenants.empty())
    put_table(os, x.tenants, [&x](const TenantRunResult& t) {
      return pick(tenant_fields(x, t),
                  {"tenant", "workload=tenant_workload", "tenant_mode", "quota_frames",
                   "finish_cycle", "completed", "slowdown_vs_solo", "jain_fairness",
                   "page_faults", "pages_evicted", "evicted_by_self", "evicted_by_others",
                   "evictions_of_others"});
    });
  if (!x.devices.empty()) {
    put_table(os, x.devices, [&x](const DeviceRunResult& d) {
      return pick(device_fields(d) + fabric_fields(x),
                  {"device=id", "fabric", "capacity_pages", "finish_cycle", "completed",
                   "page_faults", "remote_accesses", "peer_fetches", "spill_hopbacks",
                   "faults_forwarded", "chunks_spilled", "pages_spilled", "h2d_pages",
                   "d2h_pages"});
    });
    put_table(os, x.links, [](const LinkRunResult& l) {
      Fields link = link_fields(l);
      link.front().name = "link";  // the CSV heads the name column "link"
      return link;
    });
  }
}

void write_json(std::ostream& os, const std::vector<LabelledResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& x = results[i].result;
    put(os << "  {",
        pick(run_fields(x, results[i].spec.label),
             {"workload", "label", "eviction", "prefetcher", "oversub", "cycles",
              "completed", "page_faults", "migration_ops", "pages_in", "pages_evicted",
              "mhpe_switched_to_lru", "pattern_matches"}),
        Render::kJson);
    if (!x.tenants.empty()) {
      put(os << ',',
          pick(tenant_fields(x, x.tenants[0]), {"tenant_mode", "jain_fairness"}),
          Render::kJson);
      put_json_array(os, "tenants", x.tenants, [&x](const TenantRunResult& t) {
        return pick(tenant_fields(x, t),
                    {"id=tenant", "workload=tenant_workload", "footprint_pages",
                     "quota_frames", "finish_cycle", "completed", "slowdown_vs_solo",
                     "page_faults", "pages_in", "pages_evicted", "evicted_by_self",
                     "evicted_by_others", "evictions_of_others"});
      });
    }
    // Simulator-overhead counters (docs/performance.md), as flat keys.
    put(os << ',', {{"sim_events_executed", x.sim.events_executed},
                   {"sim_event_heap_peak", x.sim.event_heap_peak},
                   {"sim_event_heap_capacity", x.sim.event_heap_capacity},
                   {"sim_oversize_events", x.sim.oversize_events},
                   {"sim_chain_slab_capacity", x.sim.chain_slab_capacity},
                   {"sim_page_table_capacity", x.sim.page_table_capacity},
                   {"sim_page_table_load", x.sim.page_table_load}}, Render::kJson);
    if (x.clamped_past != 0)
      put(os << ',', {{"clamped_past", x.clamped_past}}, Render::kJson);
    os << "}" << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "]\n";
  if (!os) throw std::runtime_error("results: JSON write failed");
}

void save_csv(const std::string& path, const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_csv(os, results);
}

void save_json(const std::string& path, const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_json(os, results);
}

void save_tenant_csv(const std::string& path,
                     const std::vector<LabelledResult>& results) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("results: cannot open " + path);
  write_tenant_csv(os, results);
}

}  // namespace uvmsim
