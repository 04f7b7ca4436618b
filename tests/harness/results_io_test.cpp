#include "harness/results_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string_view>

namespace uvmsim {
namespace {

LabelledResult sample(const std::string& label = "CPPE") {
  LabelledResult r;
  r.spec.label = label;
  r.result.workload = "NW";
  r.result.eviction_name = "MHPE";
  r.result.prefetcher_name = "pattern-aware/s2";
  r.result.oversub = 0.5;
  r.result.cycles = 12345;
  r.result.completed = true;
  r.result.driver.page_faults = 100;
  r.result.driver.pages_migrated_in = 400;
  r.result.driver.pages_demanded = 100;
  r.result.driver.pages_prefetched = 300;
  r.result.mhpe_used = true;
  r.result.mhpe_switched_to_lru = true;
  r.result.pattern_matches = 7;
  return r;
}

TEST(ResultsIo, CsvHeaderAndRowHaveSameColumnCount) {
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(results_csv_header()), count(to_csv_row(sample())));
}

TEST(ResultsIo, CsvRowContents) {
  const std::string row = to_csv_row(sample());
  EXPECT_NE(row.find("NW,CPPE,MHPE,pattern-aware/s2,0.5,12345,1,100"),
            std::string::npos);
}

TEST(ResultsIo, CsvEscapesCommasAndQuotes) {
  const std::string row = to_csv_row(sample("a,b\"c"));
  EXPECT_NE(row.find("\"a,b\"\"c\""), std::string::npos);
}

TEST(ResultsIo, WriteCsvDocument) {
  std::ostringstream os;
  write_csv(os, {sample(), sample("other")});
  const std::string doc = os.str();
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 3);  // header + 2 rows
  EXPECT_EQ(doc.find("workload,label"), 0u);
}

TEST(ResultsIo, JsonIsWellFormedish) {
  std::ostringstream os;
  write_json(os, {sample(), sample("b")});
  const std::string doc = os.str();
  EXPECT_EQ(doc.front(), '[');
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'), 2);
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '}'), 2);
  EXPECT_NE(doc.find("\"workload\":\"NW\""), std::string::npos);
  EXPECT_NE(doc.find("\"mhpe_switched_to_lru\":true"), std::string::npos);
  // exactly one separating comma between the two objects
  EXPECT_NE(doc.find("},"), std::string::npos);
}

TEST(ResultsIo, JsonEscapesStrings) {
  std::ostringstream os;
  write_json(os, {sample("with \"quotes\" and \n newline")});
  const std::string doc = os.str();
  EXPECT_NE(doc.find("with \\\"quotes\\\" and \\n newline"), std::string::npos);
}

LabelledResult fleet_sample(const std::string& label = "fleet-hr") {
  LabelledResult r = sample(label);
  r.result.workload = "fleet";
  r.result.fleet.enabled = true;
  r.result.fleet.admission = "headroom";
  r.result.fleet.scheduler = "least-loaded";
  r.result.fleet.devices = 4;
  r.result.fleet.arrival_rate = 40.0;
  r.result.fleet.jobs_submitted = 1000;
  r.result.fleet.jobs_completed = 950;
  r.result.fleet.jobs_rejected = 50;
  r.result.fleet.rejected_policy = 50;
  r.result.fleet.goodput = 31.5;
  r.result.fleet.slowdown_p95 = 3.25;
  r.result.devices.resize(4);
  for (u32 d = 0; d < 4; ++d) r.result.devices[d].id = d;
  return r;
}

TEST(ResultsIo, FleetCsvOneRowPerFleetResult) {
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  std::ostringstream os;
  write_fleet_csv(os, {sample(), fleet_sample(), fleet_sample("b")});
  const std::string doc = os.str();
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 3);  // header + 2 rows
  EXPECT_EQ(doc.find("label,eviction,prefetcher,admission"), 0u);
  EXPECT_NE(doc.find("fleet-hr,MHPE"), std::string::npos);
  std::istringstream lines(doc);
  std::string header, row;
  std::getline(lines, header);
  std::getline(lines, row);
  EXPECT_EQ(count(header), count(row));
}

// Every result slice an artefact writes filled in (tenants, devices and
// links, the GPU-driven backend, the simulator counters, clamped events),
// with string cells that need quoting in both formats and doubles that need
// more than six digits.
LabelledResult every_block(const std::string& label = "a,\"b\"") {
  LabelledResult r = sample(label);
  RunResult& x = r.result;
  x.workload = "NW+BFS";
  x.oversub = 0.123456789;
  x.cycles = 12345678901;
  x.driver.faults_coalesced = 11;
  x.driver.migration_ops = 12;
  x.driver.pages_evicted = 13;
  x.driver.chunks_evicted = 14;
  x.h2d_pages = 20;
  x.d2h_pages = 21;
  x.mhpe_forward_distance = 22;
  x.mhpe_wrong_evictions = 23;
  x.pattern_buffer_peak = 24;
  x.pattern_mismatches = 25;
  x.final_chain_length = 26;

  x.tenant_mode = "quota";
  x.jain_fairness = 0.875;
  for (u32 t = 0; t < 2; ++t) {
    TenantRunResult tr;
    tr.id = t;
    tr.workload = t == 0 ? "NW" : "hot,spot\t\"x\"";
    tr.footprint_pages = 1000 + t;
    tr.quota_frames = 500 + t;
    tr.finish_cycle = 9000 + t;
    tr.completed = t == 0;
    tr.slowdown_vs_solo = 1.5 + t / 3.0;
    tr.stats = {31 + t, 32 + t, 33 + t, 34 + t, 35 + t, 36 + t,
                37 + t, 38 + t, 39 + t, 40 + t, 41 + t};
    x.tenants.push_back(tr);
  }

  x.fabric = "ring";
  x.gpus = 2;
  for (u32 d = 0; d < 2; ++d) {
    DeviceRunResult dr;
    dr.id = d;
    dr.capacity_pages = 4096;
    dr.finish_cycle = 8000 + d;
    dr.completed = d == 1;
    dr.driver.page_faults = 51 + d;
    dr.driver.pages_migrated_in = 52 + d;
    dr.driver.pages_evicted = 53 + d;
    dr.driver.remote_accesses = 54 + d;
    dr.driver.peer_fetches = 55 + d;
    dr.driver.spill_hopbacks = 56 + d;
    dr.driver.faults_forwarded = 57 + d;
    dr.driver.chunks_spilled = 58 + d;
    dr.driver.pages_spilled = 59 + d;
    dr.h2d_pages = 60 + d;
    dr.d2h_pages = 61 + d;
    x.devices.push_back(dr);
  }
  x.links = {{"d0->d1", 70, 0.25}, {"d1->\"host\"", 71, 2.0 / 3.0}};

  x.fault_backend = "gpu-driven";
  x.gpu_fault_backend = true;
  x.faultsvc = {81, 82, 83, 84, 85};
  x.sim = {91, 92, 93, 94, 95, 96, 0.4375};
  x.clamped_past = 2;
  return r;
}

// The same run as a fleet run: the fleet CSV and the fleet's `--csv` write
// its fleet slice.
LabelledResult every_block_fleet() {
  LabelledResult r = every_block("fleet,\"y\"");
  FleetRunResult& fl = r.result.fleet;
  fl.enabled = true;
  fl.admission = "headroom";
  fl.scheduler = "least,loaded";
  fl.devices = 2;
  fl.arrival_rate = 40.5;
  fl.jobs_submitted = 1000;
  fl.jobs_completed = 950;
  fl.jobs_rejected = 50;
  fl.rejected_queue_full = 10;
  fl.rejected_never_fits = 15;
  fl.rejected_policy = 25;
  fl.peak_queue_depth = 7;
  fl.rejection_rate = 0.05;
  fl.goodput = 31.123456789;
  fl.mean_queue_wait = 1234.5;
  fl.p95_queue_wait = 2345678.0;
  fl.mean_slowdown = 1.75;
  fl.slowdown_p50 = 1.5;
  fl.slowdown_p95 = 3.25;
  fl.slowdown_p99 = 4.0;
  fl.fairness_min = 0.9;
  fl.fairness_mean = 0.96;
  return r;
}

// The four documents for {every_block(), every_block_fleet()}, whole: a
// change to any column, key, block, separator or cell rule shows up here.
const char* const kCsv =
    "workload,label,eviction,prefetcher,oversub,cycles,completed,"
    "page_faults,faults_coalesced,migration_ops,pages_in,"
    "pages_demanded,pages_prefetched,pages_evicted,"
    "chunks_evicted,h2d_pages,d2h_pages,mhpe_used,"
    "mhpe_switched_to_lru,mhpe_forward_distance,"
    "mhpe_wrong_evictions,pattern_buffer_peak,pattern_matches,"
    "pattern_mismatches,final_chain_length\n"
    "NW+BFS,\"a,\"\"b\"\"\",MHPE,pattern-aware/s2,0.123456789,12345678901,"
    "1,100,11,12,400,100,300,13,14,20,21,1,1,22,23,24,7,25,26\n"
    "NW+BFS,\"fleet,\"\"y\"\"\",MHPE,pattern-aware/s2,0.123456789,"
    "12345678901,1,100,11,12,400,100,300,13,14,20,21,1,1,22,23,"
    "24,7,25,26\n";

const char* const kTenantCsv =
    "workload,label,eviction,prefetcher,oversub,tenant_mode,"
    "tenant,tenant_workload,footprint_pages,quota_frames,"
    "finish_cycle,completed,slowdown_vs_solo,jain_fairness,"
    "page_faults,faults_coalesced,pages_in,pages_demanded,"
    "pages_prefetched,pages_evicted,chunks_evicted,"
    "evicted_by_self,evicted_by_others,evictions_of_others,"
    "fault_wait_cycles\n"
    "NW+BFS,\"a,\"\"b\"\"\",MHPE,pattern-aware/s2,0.123456789,quota,0,NW,"
    "1000,500,9000,1,1.5,0.875,31,32,33,34,35,36,37,38,39,40,41\n"
    "NW+BFS,\"a,\"\"b\"\"\",MHPE,pattern-aware/s2,0.123456789,quota,1,"
    "\"hot,spot\t\"\"x\"\"\",1001,501,9001,0,1.8333333333333333,0.875,32,33,34,35,"
    "36,37,38,39,40,41,42\n"
    "NW+BFS,\"fleet,\"\"y\"\"\",MHPE,pattern-aware/s2,0.123456789,quota,0,"
    "NW,1000,500,9000,1,1.5,0.875,31,32,33,34,35,36,37,38,39,40,"
    "41\n"
    "NW+BFS,\"fleet,\"\"y\"\"\",MHPE,pattern-aware/s2,0.123456789,quota,1,"
    "\"hot,spot\t\"\"x\"\"\",1001,501,9001,0,1.8333333333333333,0.875,32,33,34,35,"
    "36,37,38,39,40,41,42\n";

const char* const kFleetCsv =
    "label,eviction,prefetcher,admission,scheduler,devices,"
    "arrival_rate,jobs_submitted,jobs_completed,jobs_rejected,"
    "rejected_queue_full,rejected_never_fits,rejected_policy,"
    "peak_queue_depth,rejection_rate,goodput,mean_queue_wait,"
    "p95_queue_wait,mean_slowdown,slowdown_p50,slowdown_p95,"
    "slowdown_p99,fairness_min,fairness_mean,cycles\n"
    "\"fleet,\"\"y\"\"\",MHPE,pattern-aware/s2,headroom,\"least,loaded\","
    "2,40.5,1000,950,50,10,15,25,7,0.05,31.123456789,1234.5,"
    "2345678,1.75,1.5,3.25,4,0.9,0.96,12345678901\n";

const char* const kJson =
    R"([)" "\n"
    R"(  {"workload":"NW+BFS","label":"a,\"b\"","eviction":"MHPE",)"
    R"("prefetcher":"pattern-aware/s2","oversub":0.123456789,)"
    R"("cycles":12345678901,"completed":true,"page_faults":100,)"
    R"("migration_ops":12,"pages_in":400,"pages_evicted":13,)"
    R"("mhpe_switched_to_lru":true,"pattern_matches":7,)"
    R"("tenant_mode":"quota","jain_fairness":0.875,"tenants":[{"id":0,)"
    R"("workload":"NW","footprint_pages":1000,"quota_frames":500,)"
    R"("finish_cycle":9000,"completed":true,"slowdown_vs_solo":1.5,)"
    R"("page_faults":31,"pages_in":33,"pages_evicted":36,)"
    R"("evicted_by_self":38,"evicted_by_others":39,)"
    R"("evictions_of_others":40},{"id":1,"workload":"hot,spot\t\"x\"",)"
    R"("footprint_pages":1001,"quota_frames":501,"finish_cycle":9001,)"
    R"("completed":false,"slowdown_vs_solo":1.8333333333333333,"page_faults":32,)"
    R"("pages_in":34,"pages_evicted":37,"evicted_by_self":39,)"
    R"("evicted_by_others":40,"evictions_of_others":41}],)"
    R"("sim_events_executed":91,"sim_event_heap_peak":92,)"
    R"("sim_event_heap_capacity":93,"sim_oversize_events":94,)"
    R"("sim_chain_slab_capacity":95,"sim_page_table_capacity":96,)"
    R"("sim_page_table_load":0.4375,"clamped_past":2},)" "\n"
    R"(  {"workload":"NW+BFS","label":"fleet,\"y\"","eviction":"MHPE",)"
    R"("prefetcher":"pattern-aware/s2","oversub":0.123456789,)"
    R"("cycles":12345678901,"completed":true,"page_faults":100,)"
    R"("migration_ops":12,"pages_in":400,"pages_evicted":13,)"
    R"("mhpe_switched_to_lru":true,"pattern_matches":7,)"
    R"("tenant_mode":"quota","jain_fairness":0.875,"tenants":[{"id":0,)"
    R"("workload":"NW","footprint_pages":1000,"quota_frames":500,)"
    R"("finish_cycle":9000,"completed":true,"slowdown_vs_solo":1.5,)"
    R"("page_faults":31,"pages_in":33,"pages_evicted":36,)"
    R"("evicted_by_self":38,"evicted_by_others":39,)"
    R"("evictions_of_others":40},{"id":1,"workload":"hot,spot\t\"x\"",)"
    R"("footprint_pages":1001,"quota_frames":501,"finish_cycle":9001,)"
    R"("completed":false,"slowdown_vs_solo":1.8333333333333333,"page_faults":32,)"
    R"("pages_in":34,"pages_evicted":37,"evicted_by_self":39,)"
    R"("evicted_by_others":40,"evictions_of_others":41}],)"
    R"("sim_events_executed":91,"sim_event_heap_peak":92,)"
    R"("sim_event_heap_capacity":93,"sim_oversize_events":94,)"
    R"("sim_chain_slab_capacity":95,"sim_page_table_capacity":96,)"
    R"("sim_page_table_load":0.4375,"clamped_past":2})" "\n"
    R"(])" "\n";

TEST(ResultsIo, EveryBlockDocumentsMatchTheirPinnedText) {
  const std::vector<LabelledResult> results = {every_block(), every_block_fleet()};
  std::ostringstream json, csv, tenant_csv, fleet_csv;
  write_json(json, results);
  write_csv(csv, results);
  write_tenant_csv(tenant_csv, results);
  write_fleet_csv(fleet_csv, results);
  EXPECT_EQ(json.str(), kJson);
  EXPECT_EQ(csv.str(), kCsv);
  EXPECT_EQ(tenant_csv.str(), kTenantCsv);
  EXPECT_EQ(fleet_csv.str(), kFleetCsv);
}

// `uvmsim --csv` for one run of each shape: every block (totals with the
// GPU-driven backend's columns, tenants, devices and links), a fleet run,
// and a plain single-GPU run.
const char* const kRunCsvEveryBlock =
    "workload,eviction,prefetcher,oversub,cycles,completed,faults,"
    "migration_ops,pages_in,pages_demanded,pages_prefetched,"
    "pages_evicted,mhpe_switched,pattern_matches,pattern_mismatches,"
    "fault_backend,faults_enqueued,queue_full_stalls,handler_pickups,"
    "handler_busy_cycles,max_queue_depth\n"
    "NW+BFS,MHPE,pattern-aware/s2,0.123456789,12345678901,1,100,12,400,"
    "100,300,13,1,7,25,gpu-driven,81,82,83,84,85\n"
    "tenant,workload,tenant_mode,quota_frames,finish_cycle,completed,"
    "slowdown_vs_solo,jain_fairness,page_faults,pages_evicted,"
    "evicted_by_self,evicted_by_others,evictions_of_others\n"
    "0,NW,quota,500,9000,1,1.5,0.875,31,36,38,39,40\n"
    "1,\"hot,spot\t\"\"x\"\"\",quota,501,9001,0,1.8333333333333333,0.875,32,37,39,40,41\n"
    "device,fabric,capacity_pages,finish_cycle,completed,page_faults,"
    "remote_accesses,peer_fetches,spill_hopbacks,faults_forwarded,"
    "chunks_spilled,pages_spilled,h2d_pages,d2h_pages\n"
    "0,ring,4096,8000,0,51,54,55,56,57,58,59,60,61\n"
    "1,ring,4096,8001,1,52,55,56,57,58,59,60,61,62\n"
    "link,units_moved,utilisation\n"
    "d0->d1,70,0.25\n"
    "\"d1->\"\"host\"\"\",71,0.6666666666666666\n";

const char* const kRunCsvFleet =
    "admission,scheduler,devices,arrival_rate,jobs_submitted,"
    "jobs_completed,jobs_rejected,rejected_queue_full,"
    "rejected_never_fits,rejected_policy,peak_queue_depth,"
    "rejection_rate,goodput,mean_queue_wait,p95_queue_wait,"
    "mean_slowdown,slowdown_p50,slowdown_p95,slowdown_p99,"
    "fairness_min,fairness_mean\n"
    "headroom,\"least,loaded\",2,40.5,1000,950,50,10,15,25,7,0.05,"
    "31.123456789,1234.5,2345678,1.75,1.5,3.25,4,0.9,0.96\n";

const char* const kRunCsvSingle =
    "workload,eviction,prefetcher,oversub,cycles,completed,faults,"
    "migration_ops,pages_in,pages_demanded,pages_prefetched,"
    "pages_evicted,mhpe_switched,pattern_matches,pattern_mismatches\n"
    "NW,MHPE,pattern-aware/s2,0.5,12345,1,100,0,400,100,300,0,1,7,0\n";

TEST(ResultsIo, RunCsvWritesEveryCliShape) {
  const auto run_csv = [](const LabelledResult& r) {
    std::ostringstream os;
    write_run_csv(os, r.result);
    return os.str();
  };
  EXPECT_EQ(run_csv(every_block()), kRunCsvEveryBlock);
  EXPECT_EQ(run_csv(every_block_fleet()), kRunCsvFleet);
  EXPECT_EQ(run_csv(sample()), kRunCsvSingle);
}

/// Every number of a RunResult that some artefact writes, under each name an
/// artefact gives it (renamed columns too). Slices share names, so a name
/// may hold several values.
using Numbers = std::multimap<std::string, double>;

Numbers numbers_of(const RunResult& x) {
  const DriverStats& d = x.driver;
  const FaultBackendStats& b = x.faultsvc;
  const FleetRunResult& f = x.fleet;
  Numbers n = {
      {"oversub", x.oversub}, {"cycles", x.cycles}, {"completed", x.completed},
      {"page_faults", d.page_faults}, {"faults", d.page_faults},
      {"faults_coalesced", d.faults_coalesced}, {"migration_ops", d.migration_ops},
      {"pages_in", d.pages_migrated_in}, {"pages_demanded", d.pages_demanded},
      {"pages_prefetched", d.pages_prefetched}, {"pages_evicted", d.pages_evicted},
      {"chunks_evicted", d.chunks_evicted}, {"h2d_pages", x.h2d_pages},
      {"d2h_pages", x.d2h_pages}, {"mhpe_used", x.mhpe_used},
      {"mhpe_switched_to_lru", x.mhpe_switched_to_lru},
      {"mhpe_switched", x.mhpe_switched_to_lru},
      {"mhpe_forward_distance", x.mhpe_forward_distance},
      {"mhpe_wrong_evictions", x.mhpe_wrong_evictions},
      {"pattern_buffer_peak", x.pattern_buffer_peak},
      {"pattern_matches", x.pattern_matches},
      {"pattern_mismatches", x.pattern_mismatches},
      {"final_chain_length", x.final_chain_length},
      {"jain_fairness", x.jain_fairness},
      {"faults_enqueued", b.faults_enqueued}, {"queue_full_stalls", b.queue_full_stalls},
      {"handler_pickups", b.handler_pickups},
      {"handler_busy_cycles", b.handler_busy_cycles},
      {"max_queue_depth", b.max_queue_depth},
      {"sim_events_executed", x.sim.events_executed},
      {"sim_event_heap_peak", x.sim.event_heap_peak},
      {"sim_event_heap_capacity", x.sim.event_heap_capacity},
      {"sim_oversize_events", x.sim.oversize_events},
      {"sim_chain_slab_capacity", x.sim.chain_slab_capacity},
      {"sim_page_table_capacity", x.sim.page_table_capacity},
      {"sim_page_table_load", x.sim.page_table_load},
      {"clamped_past", x.clamped_past},
      {"devices", f.devices}, {"arrival_rate", f.arrival_rate},
      {"jobs_submitted", f.jobs_submitted}, {"jobs_completed", f.jobs_completed},
      {"jobs_rejected", f.jobs_rejected}, {"rejected_queue_full", f.rejected_queue_full},
      {"rejected_never_fits", f.rejected_never_fits},
      {"rejected_policy", f.rejected_policy}, {"peak_queue_depth", f.peak_queue_depth},
      {"rejection_rate", f.rejection_rate}, {"goodput", f.goodput},
      {"mean_queue_wait", f.mean_queue_wait}, {"p95_queue_wait", f.p95_queue_wait},
      {"mean_slowdown", f.mean_slowdown}, {"slowdown_p50", f.slowdown_p50},
      {"slowdown_p95", f.slowdown_p95}, {"slowdown_p99", f.slowdown_p99},
      {"fairness_min", f.fairness_min}, {"fairness_mean", f.fairness_mean}};
  for (const TenantRunResult& t : x.tenants) {
    const TenantStats& ts = t.stats;
    n.insert({{"id", t.id}, {"tenant", t.id}, {"footprint_pages", t.footprint_pages},
              {"quota_frames", t.quota_frames}, {"finish_cycle", t.finish_cycle},
              {"completed", t.completed}, {"slowdown_vs_solo", t.slowdown_vs_solo},
              {"page_faults", ts.page_faults}, {"faults_coalesced", ts.faults_coalesced},
              {"pages_in", ts.pages_migrated_in}, {"pages_demanded", ts.pages_demanded},
              {"pages_prefetched", ts.pages_prefetched},
              {"pages_evicted", ts.pages_evicted}, {"chunks_evicted", ts.chunks_evicted},
              {"evicted_by_self", ts.evicted_by_self},
              {"evicted_by_others", ts.evicted_by_others},
              {"evictions_of_others", ts.evictions_of_others},
              {"fault_wait_cycles", ts.fault_wait_cycles}});
  }
  for (const DeviceRunResult& dv : x.devices) {
    const DriverStats& ds = dv.driver;
    n.insert({{"id", dv.id}, {"device", dv.id}, {"capacity_pages", dv.capacity_pages},
              {"finish_cycle", dv.finish_cycle}, {"completed", dv.completed},
              {"page_faults", ds.page_faults}, {"pages_in", ds.pages_migrated_in},
              {"pages_evicted", ds.pages_evicted}, {"remote_accesses", ds.remote_accesses},
              {"peer_fetches", ds.peer_fetches}, {"spill_hopbacks", ds.spill_hopbacks},
              {"faults_forwarded", ds.faults_forwarded},
              {"chunks_spilled", ds.chunks_spilled}, {"pages_spilled", ds.pages_spilled},
              {"h2d_pages", dv.h2d_pages}, {"d2h_pages", dv.d2h_pages}});
  }
  for (const LinkRunResult& l : x.links)
    n.insert({{"units_moved", l.units_moved}, {"utilisation", l.utilisation}});
  return n;
}

/// `cell` as a number when all of it parses as one.
std::optional<double> number(std::string_view cell) {
  double v = 0;
  const auto [end, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), v);
  if (cell.empty() || ec != std::errc{} || end != cell.data() + cell.size())
    return std::nullopt;
  return v;
}

/// The cells of one CSV line, unquoted.
std::vector<std::string> csv_cells(const std::string& line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"')
      cells.back() += line[++i];
    else if (c == '"')
      quoted = !quoted;
    else if (c == ',' && !quoted)
      cells.emplace_back();
    else
      cells.back() += c;
  }
  return cells;
}

/// Expect the number in the cell named `name` to be exactly one of the
/// values `want` holds under that name; returns 1 for the count.
u64 expect_exact(const Numbers& want, const std::string& name, double got,
                 std::string_view text) {
  const auto [lo, hi] = want.equal_range(name);
  EXPECT_NE(lo, hi) << "no field named " << name;
  EXPECT_TRUE(std::any_of(lo, hi, [got](const auto& kv) { return kv.second == got; }))
      << name << " written as " << text << " is no value of that field";
  return 1;
}

/// Check every numeric cell of a CSV document, whose tables each start with
/// a header: the one kind of line without a number in it.
u64 check_csv(const Numbers& want, const std::string& doc) {
  std::istringstream lines(doc);
  std::vector<std::string> header;
  u64 checked = 0;
  for (std::string line; std::getline(lines, line);) {
    const std::vector<std::string> cells = csv_cells(line);
    if (std::none_of(cells.begin(), cells.end(),
                     [](const std::string& c) { return number(c).has_value(); })) {
      header = cells;
      continue;
    }
    EXPECT_EQ(cells.size(), header.size()) << line;
    for (std::size_t i = 0; i < cells.size() && i < header.size(); ++i)
      if (const auto v = number(cells[i])) checked += expect_exact(want, header[i], *v, cells[i]);
  }
  return checked;
}

/// Check every numeric member of a JSON document.
u64 check_json(const Numbers& want, const std::string& doc) {
  static const std::regex member(R"re("(\w+)":(-?[0-9][^,}\]]*))re");
  u64 checked = 0;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), member);
       it != std::sregex_iterator(); ++it) {
    const std::string text = (*it)[2];
    const auto v = number(text);
    EXPECT_TRUE(v.has_value()) << text;
    if (v) checked += expect_exact(want, (*it)[1], *v, text);
  }
  return checked;
}

// Parse every numeric cell of every artefact back: it must equal its
// RunResult field exactly, so no writer may round a double.
TEST(ResultsIo, EveryNumberReadsBackAsItsFieldExactly) {
  const std::vector<LabelledResult> results = {every_block(), every_block_fleet()};
  // The fleet sample is the other one plus its fleet slice.
  const Numbers want = numbers_of(results[1].result);
  std::ostringstream json, csv, tenant_csv, fleet_csv, run_csv, run_fleet_csv;
  write_json(json, results);
  write_csv(csv, results);
  write_tenant_csv(tenant_csv, results);
  write_fleet_csv(fleet_csv, results);
  write_run_csv(run_csv, results[0].result);
  write_run_csv(run_fleet_csv, results[1].result);
  u64 checked = check_json(want, json.str());
  for (const std::ostringstream* doc : {&csv, &tenant_csv, &fleet_csv, &run_csv, &run_fleet_csv})
    checked += check_csv(want, doc->str());
  EXPECT_GE(checked, 300u);
}

TEST(ResultsIo, SaveToFilesRoundTrips) {
  const std::string dir = ::testing::TempDir();
  save_csv(dir + "/r.csv", {sample()});
  save_json(dir + "/r.json", {sample()});
  std::ifstream csv(dir + "/r.csv"), json(dir + "/r.json");
  EXPECT_TRUE(csv.good());
  EXPECT_TRUE(json.good());
}

TEST(ResultsIo, SaveToBadPathThrows) {
  EXPECT_THROW(save_csv("/nonexistent/x.csv", {}), std::runtime_error);
}

}  // namespace
}  // namespace uvmsim
