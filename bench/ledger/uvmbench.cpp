// uvmbench: the performance ledger's measuring program (README.md here).
//
// One process measures one named workload: a fixed list of experiments run
// closed-loop, one experiment at a time. It first runs one untimed warm-up
// experiment (fabric4: a pass with engine worker threads), then a fixed
// number of timed passes over the whole list: Suite::passes, for a run of
// kBudgetSeconds, scaled by --seconds / kBudgetSeconds, so it never depends
// on the host's speed. They fill about 16 s on a 4-core Xeon VM, leaving
// room for a slower or busier host. A
// host-time metric is the sum, over the experiments, of each experiment's
// fastest pass: contention on a shared host slows single passes, and the
// per-experiment minimum drops them.
//
//   uvmbench --workload fig8 [--seed N] [--seconds S]      end-to-end metrics
//   uvmbench --workload fig8 --traced [--trace-out f.jsonl] per-layer metrics
//   uvmbench --smoke --out smoke.json                       self-test
//
// --trace 0|1 is accepted as a synonym of (no) --traced. --out writes the
// result file (provenance, every metric with its quartiles, raw per-sample
// times). The last line of stdout is always one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Any failed output check prints its reason to stderr and exits 1.
//
// The traced mode runs Suite::rounds rounds of an untraced, a threaded
// (fabric4) and a traced pass. Host times of the layers come from the
// traced passes (probes.hpp); simulated counts come from the untraced ones;
// the two must agree exactly. Every experiment runs on the public systems
// (UvmSystem, MultiTenantSystem, FabricSystem, FleetSystem); --smoke
// cross-checks their results against run_experiment().
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "fabric/fabric_system.hpp"
#include "fleet/fleet_system.hpp"
#include "harness/experiment.hpp"
#include "harness/version.hpp"
#include "probes.hpp"
#include "tenancy/fairness.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;
using namespace uvmsim::ledger;

namespace {

constexpr u64 kDefaultSeed = 0x5EED;  // 24301, the repository default
constexpr double kBudgetSeconds = 20.0;  // the run Suite::passes is sized for
constexpr int kMinPasses = 3;            // untraced, whatever --seconds says
constexpr int kExtraSetups = 4;
const std::vector<std::string> kWorkloads = {"fig8", "fit", "fabric4", "fleet",
                                             "mixed"};

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

u32 nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<u32>(std::max(1, CPU_COUNT(&set)));
}

// ---------------------------------------------------------------------------
// Workloads: named experiment lists.

struct Experiment {
  std::string name;   ///< e.g. "NW/CPPE@0.50"
  ExperimentSpec spec;
};

struct Suite {
  std::string name;
  std::vector<Experiment> exps;
  /// fabric4: engine worker threads of its threaded passes; 0 for the rest.
  u32 threaded = 0;
  /// Timed untraced passes, and traced-mode rounds, in a kBudgetSeconds run.
  int passes = 0;
  int rounds = 0;
};

std::string rate_str(double oversub) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << oversub;
  return os.str();
}

Experiment single(const std::string& w, const std::string& label,
                  PolicyConfig pol, double oversub, u64 seed) {
  Experiment x;
  x.name = w + "/" + label + "@" + rate_str(oversub);
  pol.seed = seed;
  x.spec.workload = w;
  x.spec.label = label;
  x.spec.policy = pol;
  x.spec.oversub = oversub;
  return x;
}

Suite make_suite(const std::string& name, u64 seed, bool smoke, u32 threads) {
  Suite s;
  s.name = name;
  const std::vector<std::string> all = benchmark_abbrs();
  if (name == "fig8" || name == "fit") {
    // fig8: the paper's evaluation matrix (eviction-heavy). fit: the same
    // workloads with everything resident — nothing is evicted or shot down.
    const std::vector<double> rates =
        name == "fit" ? std::vector<double>{1.0}
                      : (smoke ? std::vector<double>{0.5}
                               : std::vector<double>{0.75, 0.5});
    const std::vector<std::string> ws =
        smoke ? std::vector<std::string>{"NW", "HOT"} : all;
    s.passes = name == "fit" ? 30 : 4;
    s.rounds = name == "fit" ? 12 : 2;
    for (const double rate : rates)
      for (const bool cppe : {false, true})
        for (const std::string& w : ws)
          s.exps.push_back(single(w, cppe ? "CPPE" : "baseline",
                                  cppe ? presets::cppe() : presets::baseline(),
                                  rate, seed));
  } else if (name == "fabric4") {
    // The only workload on the sharded engine and on src/fabric. Its timed
    // passes run the engine on one thread: with worker threads every window
    // ends at two barrier waits whose length tracks the host's load, too
    // noisy to bound (README.md). The threaded passes check the results and
    // time the threads; workers plus the coordinating thread stay in nproc.
    s.threaded = std::clamp<u32>(threads - 1, 1, 4);
    s.passes = 32;
    s.rounds = 9;
    const std::vector<std::string> ws =
        smoke ? std::vector<std::string>{"NW"}
              : std::vector<std::string>{"NW", "SRD", "KMN"};
    for (const std::string& w : ws) {
      Experiment x = single(w, "CPPE-4gpu", presets::cppe(), 0.5, seed);
      x.spec.fabric.gpus = 4;
      x.spec.fabric.topology = FabricKind::kSwitch;
      x.spec.engine.kind = EngineKind::kSharded;
      x.spec.engine.threads = 1;
      s.exps.push_back(std::move(x));
    }
  } else if (name == "fleet") {
    // Open-loop arrivals just above the fleet's completion rate: job
    // build/teardown, admission and placement, and the SLA metrics.
    Experiment x;
    x.name = "fleet/headroom+least-loaded@40";
    x.spec.workload = "fleet";
    x.spec.label = "fleet";
    x.spec.policy = presets::cppe();
    x.spec.policy.seed = seed;
    x.spec.fleet.enabled = true;
    x.spec.fleet.devices = 4;
    x.spec.fleet.jobs = smoke ? 100 : 1000;
    x.spec.fleet.arrival_rate = 40.0;
    x.spec.fleet.admission = AdmissionKind::kHeadroom;
    x.spec.fleet.scheduler = FleetSchedKind::kLeastLoaded;
    s.exps.push_back(std::move(x));
    s.passes = 5;
    s.rounds = 3;
  } else if (name == "mixed") {
    // The eviction path reached other ways: whole 2 MB frame eviction,
    // per-tenant chains with three Gpus on one driver, GPU-driven intake.
    const std::vector<std::string> ws =
        smoke ? std::vector<std::string>{"2DC"}
              : std::vector<std::string>{"2DC", "KMN", "SRD"};
    for (const std::string& w : ws) {
      PolicyConfig pol = presets::baseline();
      pol.large_pages = true;
      s.exps.push_back(single(w, "baseline-2MB", pol, 0.75, seed));
    }
    Experiment x = single("NW+BFS+SRD", "CPPE-quota-gpuvm",
                          presets::with_fault_batch(presets::cppe(), 8), 0.5, seed);
    x.spec.workload = "NW";
    x.spec.tenants = {"NW", "BFS", "SRD"};
    x.spec.tenant_mode = TenantMode::kQuota;
    x.spec.system.fault_backend = FaultBackendKind::kGpuDriven;
    x.spec.tenant_solo_baselines = true;
    s.exps.push_back(std::move(x));
    s.passes = 11;
    s.rounds = 6;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Running one experiment.

// An experiment is built on the same public system run_experiment() uses.
// Traced, its workloads sit behind the stream probe and `sink` (probes.hpp)
// watches its recorders; a single-driver system also gets the shootdown
// bracket. Fabric and fleet systems keep their drivers to themselves.

/// A Table II workload, behind the stream probe when traced.
std::unique_ptr<Workload> load(const std::string& abbr, bool probed) {
  std::unique_ptr<Workload> w = make_benchmark(abbr);
  if (!probed) return w;
  return std::make_unique<TimedWorkload>(std::move(w));
}

/// Attach the sink and the shootdown bracket to a built UvmSystem or
/// MultiTenantSystem.
template <class System>
void watch(System& system, CountingSink* sink) {
  if (sink == nullptr) return;
  system.recorder().add_sink(sink);
  sink->bracket_shootdowns(system.driver());
}

class Instance {
 public:
  virtual ~Instance() = default;
  [[nodiscard]] virtual RunResult run(Cycle max_cycles) = 0;
};

class Single final : public Instance {
 public:
  Single(const ExperimentSpec& spec, CountingSink* sink)
      : workload_(load(spec.workload, sink != nullptr)),
        system_(spec.system, spec.policy, *workload_, spec.oversub) {
    watch(system_, sink);
  }
  RunResult run(Cycle max_cycles) override { return system_.run(max_cycles); }

 private:
  std::unique_ptr<Workload> workload_;
  UvmSystem system_;
};

/// The multi-tenant run plus its solo baselines, as run_experiment does.
class Tenants final : public Instance {
 public:
  Tenants(const ExperimentSpec& spec, CountingSink* sink) : spec_(spec), sink_(sink) {
    std::vector<const Workload*> ptrs;
    for (const std::string& abbr : spec.tenants) {
      workloads_.push_back(load(abbr, sink != nullptr));
      ptrs.push_back(workloads_.back().get());
    }
    system_ = std::make_unique<MultiTenantSystem>(
        spec.system, spec.policy, ptrs, spec.oversub, spec.tenant_mode,
        spec.tenant_scope);
    watch(*system_, sink);
  }

  RunResult run(Cycle max_cycles) override {
    RunResult r = system_->run(max_cycles);
    if (!spec_.tenant_solo_baselines) return r;
    SystemConfig solo_cfg = spec_.system;
    solo_cfg.num_sms = system_->sms_per_tenant();
    std::vector<Cycle> solo_cycles;
    for (const std::unique_ptr<Workload>& w : workloads_) {
      UvmSystem solo(solo_cfg, spec_.policy, *w, spec_.oversub);
      watch(solo, sink_);
      const RunResult sr = solo.run(max_cycles);
      if (!sr.completed || sr.clamped_past > 0)
        throw std::runtime_error("solo baseline " + w->abbr() + " failed");
      solo_cycles.push_back(sr.cycles);
    }
    apply_solo_baselines(r, solo_cycles);
    return r;
  }

 private:
  ExperimentSpec spec_;
  CountingSink* sink_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::unique_ptr<MultiTenantSystem> system_;
};

class Fabric final : public Instance {
 public:
  Fabric(const ExperimentSpec& spec, CountingSink* sink)
      : workload_(load(spec.workload, sink != nullptr)),
        system_(spec.system, spec.policy, *workload_, spec.oversub, spec.fabric,
                spec.engine) {
    if (sink != nullptr) system_.add_sink(sink);
  }
  RunResult run(Cycle max_cycles) override { return system_.run(max_cycles); }

 private:
  std::unique_ptr<Workload> workload_;
  FabricSystem system_;
};

class Fleet final : public Instance {
 public:
  Fleet(const ExperimentSpec& spec, CountingSink* sink)
      : system_(spec.system, spec.policy, spec.fleet, spec.engine) {
    if (sink != nullptr) system_.add_sink(sink);
  }
  RunResult run(Cycle max_cycles) override { return system_.run(max_cycles); }

 private:
  FleetSystem system_;
};

std::unique_ptr<Instance> build(const ExperimentSpec& spec, CountingSink* sink) {
  if (spec.fleet.enabled) return std::make_unique<Fleet>(spec, sink);
  if (spec.tenants.size() >= 2) return std::make_unique<Tenants>(spec, sink);
  if (spec.fabric.gpus >= 2) return std::make_unique<Fabric>(spec, sink);
  return std::make_unique<Single>(spec, sink);
}

/// Every simulated statistic an output check compares: two runs of one
/// experiment must agree on all of them, whatever the tracing or threads.
std::vector<u64> digest(const RunResult& r) {
  const DriverStats& d = r.driver;
  const Gpu::Stats& g = r.gpu;
  std::vector<u64> v = {
      r.cycles, r.completed, r.clamped_past, r.sim.events_executed,
      r.h2d_pages, r.d2h_pages, d.page_faults, d.faults_coalesced,
      d.pages_migrated_in, d.pages_demanded, d.pages_prefetched,
      d.pages_evicted, d.chunks_evicted, d.migration_ops, d.demand_evictions,
      d.pre_evictions, d.fault_wait_cycles, d.remote_accesses, d.peer_fetches,
      d.spill_hopbacks, d.faults_forwarded, d.chunks_spilled, d.pages_spilled,
      d.pages_surrendered, d.coalesces, d.splinters, d.large_frames_evicted,
      g.accesses, g.l1_tlb_hits, g.l1_tlb_misses, g.l2_tlb_hits,
      g.l2_tlb_misses, g.far_faults, g.l1d_hits, g.l1d_misses, g.l2c_hits,
      g.l2c_misses, g.l1_tlb_large_hits, g.l2_tlb_large_hits,
      g.walks_performed, g.walk_cycles, g.large_walks,
      r.faultsvc.faults_enqueued, r.faultsvc.queue_full_stalls,
      r.faultsvc.handler_pickups, r.faultsvc.handler_busy_cycles,
      r.fleet.jobs_submitted, r.fleet.jobs_completed, r.fleet.jobs_rejected};
  for (const TenantRunResult& t : r.tenants) v.push_back(t.finish_cycle);
  return v;
}

/// The output checks every experiment must pass; empty when it does.
std::string check(const RunResult& r) {
  if (!r.completed) return "did not complete (cycle cap hit)";
  if (r.clamped_past > 0)
    return "clamped_past = " + std::to_string(r.clamped_past);
  const DriverStats& d = r.driver;
  if (d.pages_demanded + d.pages_prefetched != d.pages_migrated_in)
    return "pages_demanded + pages_prefetched != pages_migrated_in (" +
           std::to_string(d.pages_demanded) + " + " +
           std::to_string(d.pages_prefetched) +
           " != " + std::to_string(d.pages_migrated_in) + ")";
  if (r.fleet.enabled &&
      r.fleet.jobs_completed + r.fleet.jobs_rejected != r.fleet.jobs_submitted)
    return "fleet jobs_completed + jobs_rejected != jobs_submitted";
  return {};
}

struct Outcome {
  RunResult r;
  std::vector<u64> digest;
  double start_s = 0;  ///< since process start (trace spans)
  double setup_s = 0, run_s = 0, wall_s = 0;
  LayerTotals layers;
  u64 shootdown_pages = 0;
  std::array<u64, kNumEventTypes> events{};
  u64 events_total = 0;
  u64 untouched_pages = 0, evicted_pages = 0;
  std::string error;
};

Outcome run_one(const ExperimentSpec& plain, bool traced) {
  Outcome o;
  ExperimentSpec spec = plain;
  std::unique_ptr<CountingSink> sink;
  if (traced) {
    spec.policy = probed(spec.policy);
    sink = std::make_unique<CountingSink>();
  }
  try {
    // Set-up takes well under a millisecond per experiment, so an untraced
    // run builds and drops the system a few extra times and keeps the median.
    std::vector<double> setups;
    for (int i = 0; i < (traced ? 0 : kExtraSetups); ++i) {
      const Clock::time_point b0 = Clock::now();
      const std::unique_ptr<Instance> scratch = build(spec, nullptr);
      setups.push_back(seconds_since(b0));
    }
    const Clock::time_point t0 = Clock::now();
    o.start_s = std::chrono::duration<double>(t0 - kProcessStart).count();
    std::unique_ptr<Instance> inst = build(spec, sink.get());
    const Clock::time_point t1 = Clock::now();
    reset_layer_totals();  // layer times cover run(), not construction
    o.r = inst->run(spec.max_cycles);
    const Clock::time_point t2 = Clock::now();
    inst.reset();
    const Clock::time_point t3 = Clock::now();
    setups.push_back(std::chrono::duration<double>(t1 - t0).count());
    o.setup_s = median(setups);
    o.run_s = std::chrono::duration<double>(t2 - t1).count();
    o.wall_s = std::chrono::duration<double>(t3 - t0).count();
    o.digest = digest(o.r);
    o.error = check(o.r);
  } catch (const std::exception& e) {
    o.error = std::string("threw: ") + e.what();
  }
  if (sink) {
    o.layers = collect_layer_totals();
    o.shootdown_pages = sink->shootdown_pages();
    for (std::size_t t = 0; t < kNumEventTypes; ++t)
      o.events[t] = sink->count(static_cast<EventType>(t));
    o.events_total = sink->total();
    o.untouched_pages = sink->untouched_pages();
    o.evicted_pages = sink->evicted_pages();
  }
  return o;
}

using Pass = std::vector<Outcome>;

Pass run_pass(const Suite& s, bool traced, std::optional<u32> threads = {}) {
  Pass p;
  p.reserve(s.exps.size());
  for (const Experiment& x : s.exps) {
    ExperimentSpec spec = x.spec;
    if (threads) spec.engine.threads = *threads;
    p.push_back(run_one(spec, traced));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Statistics.

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// default "exclusive" method), so the ledger and compare.py agree.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 0) return {0, 0, 0};
  if (ld == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Σ over experiments of the per-experiment minimum across passes. Every
/// pass does the same simulated work, and the host's contention only ever
/// slows one down, so the fastest pass is the least disturbed.
template <class F>
double sum_of_minima(const std::vector<Pass>& passes, F field) {
  if (passes.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < passes.front().size(); ++i) {
    double least = field(passes.front()[i]);
    for (const Pass& p : passes) least = std::min(least, field(p[i]));
    sum += least;
  }
  return sum;
}

/// Per-pass sums over experiments (the samples behind the quartiles).
template <class F>
std::vector<double> pass_totals(const std::vector<Pass>& passes, F field) {
  std::vector<double> out;
  for (const Pass& p : passes) {
    double sum = 0.0;
    for (const Outcome& o : p) sum += field(o);
    out.push_back(sum);
  }
  return out;
}

template <class F>
double sum_over(const Pass& p, F field) {
  double sum = 0.0;
  for (const Outcome& o : p) sum += static_cast<double>(field(o));
  return sum;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< per pass; a single value when exact
};

// ---------------------------------------------------------------------------
// End-to-end metrics (untraced passes).

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the image of whichever process forked this one. Read
/// after the first timed pass: every experiment has then run once, and the
/// samples later passes keep would otherwise make it grow with pass count.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::vector<Metric> end_to_end(const std::vector<Pass>& passes, double rss_mb) {
  const auto wall = [](const Outcome& o) { return o.wall_s; };
  const auto setup = [](const Outcome& o) { return o.setup_s; };
  const Pass& first = passes.front();
  const double accesses = sum_over(first, [](const Outcome& o) { return o.r.gpu.accesses; });
  const double cycles = sum_over(first, [](const Outcome& o) { return o.r.cycles; });
  const double wall_s = sum_of_minima(passes, wall);
  std::vector<double> rate_samples;
  for (const double t : pass_totals(passes, wall))
    rate_samples.push_back(ratio(accesses, t) / 1e6);
  return {
      {"wall_s", "s", wall_s, pass_totals(passes, wall)},
      {"maccess_per_s", "Maccess/s", ratio(accesses, wall_s) / 1e6, rate_samples},
      {"setup_s", "s", sum_of_minima(passes, setup), pass_totals(passes, setup)},
      {"peak_rss_mb", "MB", rss_mb, {rss_mb}},
      {"sim_mcycles", "Mcycles", cycles / 1e6, {cycles / 1e6}},
  };
}

/// Workload-specific exact results, reported beside the end-to-end metrics.
std::vector<Metric> results(const Suite& s, const Pass& first, double failed_frac) {
  std::vector<Metric> out = {{"failed_frac", "frac", failed_frac, {failed_frac}}};
  if (s.name == "fig8") {
    // CPPE/baseline geomean speedup over the paper's 21-app Fig 8 set (MVT
    // and BIC omitted there), against the paper's 1.56x @0.75, 1.64x @0.50.
    double gap_sum = 0.0;
    int rates = 0;
    for (const auto& [rate, paper] : {std::pair{0.75, 1.56}, std::pair{0.5, 1.64}}) {
      double log_sum = 0.0;
      int n = 0;
      for (std::size_t i = 0; i < s.exps.size(); ++i) {
        const ExperimentSpec& b = s.exps[i].spec;
        if (b.label != "baseline" || b.oversub != rate || b.workload == "MVT" ||
            b.workload == "BIC")
          continue;
        for (std::size_t j = 0; j < s.exps.size(); ++j) {
          const ExperimentSpec& c = s.exps[j].spec;
          if (c.label == "CPPE" && c.oversub == rate && c.workload == b.workload &&
              first[j].r.cycles > 0) {
            log_sum += std::log(static_cast<double>(first[i].r.cycles) /
                                static_cast<double>(first[j].r.cycles));
            ++n;
          }
        }
      }
      if (n == 0) continue;
      gap_sum += std::abs(std::exp(log_sum / n) - paper) / paper;
      ++rates;
    }
    const double gap = rates == 0 ? 0.0 : 100.0 * gap_sum / rates;
    out.push_back({"fig8_gap_pct", "%", gap, {gap}});
  }
  for (const Outcome& o : first) {
    if (o.r.fleet.enabled) {
      out.push_back({"goodput", "jobs/Mcycle", o.r.fleet.goodput, {o.r.fleet.goodput}});
      out.push_back({"slowdown_p99", "x", o.r.fleet.slowdown_p99,
                     {o.r.fleet.slowdown_p99}});
    }
    if (!o.r.tenants.empty())
      out.push_back({"jain", "index", o.r.jain_fairness, {o.r.jain_fairness}});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced mode).

struct Runs {
  std::vector<Pass> untraced;  ///< the workload as listed, tracing off
  std::vector<Pass> traced;    ///< traced mode only
  /// Suite::threaded engine threads, tracing off (traced mode only).
  std::vector<Pass> threaded;
};

struct LayerMetrics {
  std::vector<Metric> all;     ///< measured on every workload (BENCHMARK.json)
  /// Host times of a layer only some workloads reach, reported with those
  /// workloads' results: elsewhere they would read a constant 0 ms.
  std::vector<Metric> scoped;
};

LayerMetrics per_layer(const Runs& t) {
  const Pass& u = t.untraced.front();
  const Pass& tr = t.traced.front();
  // Barrier waits exist only with worker threads.
  const Pass& engine = t.threaded.empty() ? u : t.threaded.front();
  const auto self_ms = [&t](Layer l) {
    return sum_of_minima(t.traced, [l](const Outcome& o) {
             return static_cast<double>(o.layers.self_ns(l));
           }) / 1e6;
  };
  const auto calls = [&tr](Layer l) {
    return sum_over(tr, [l](const Outcome& o) { return o.layers.count(l); });
  };
  const auto event = [&tr](EventType e) {
    return sum_over(tr, [e](const Outcome& o) {
      return o.events[static_cast<std::size_t>(e)];
    });
  };
  const auto sim = [&u](auto field) { return sum_over(u, field); };
  const auto drv = [&u](u64 DriverStats::*f) {
    return sum_over(u, [f](const Outcome& o) { return o.r.driver.*f; });
  };
  const auto gpu = [&u](u64 Gpu::Stats::*f) {
    return sum_over(u, [f](const Outcome& o) { return o.r.gpu.*f; });
  };
  const auto hit = [&gpu](u64 Gpu::Stats::*hits, u64 Gpu::Stats::*misses) {
    return ratio(gpu(hits), gpu(hits) + gpu(misses));
  };
  const auto svc = [&u](u64 FaultBackendStats::*f) {
    return sum_over(u, [f](const Outcome& o) { return o.r.faultsvc.*f; });
  };
  const auto eng = [&engine](u64 EngineRunStats::*f) {
    return sum_over(engine, [f](const Outcome& o) { return o.r.engine_stats.*f; });
  };
  const auto wall = [](const Outcome& o) { return o.wall_s; };

  // A ratio between two configurations is refused (reported as 0) unless
  // both sides executed the same events; validate() fails such a run anyway.
  const auto same_events = [](const Pass& a, const Pass& b, const char* what) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].r.sim.events_executed != b[i].r.sim.events_executed) {
        std::cerr << "uvmbench: " << what << " refused: event counts differ\n";
        return false;
      }
    return true;
  };

  const double policy_ms = self_ms(Layer::kPolicy);
  const double prefetch_ms = self_ms(Layer::kPrefetch);
  const double workloads_ms = self_ms(Layer::kWorkloads);
  const double shootdown_ms = self_ms(Layer::kShootdown);
  const double sink_ms = self_ms(Layer::kObs);
  const double run_ms =
      sum_of_minima(t.traced, [](const Outcome& o) { return o.run_s; }) * 1e3;
  const double shootdown_pages =
      sum_over(tr, [](const Outcome& o) { return o.shootdown_pages; });
  const double untraced_wall = sum_of_minima(t.untraced, wall);
  const double traced_wall = sum_of_minima(t.traced, wall);
  const double overhead_pct = same_events(u, tr, "ledger.trace_overhead_pct")
                                  ? 100.0 * (ratio(traced_wall, untraced_wall) - 1.0)
                                  : 0.0;
  double wall_threaded = 0.0, scaling = 0.0;
  if (!t.threaded.empty()) {
    wall_threaded = sum_of_minima(t.threaded, wall);
    if (same_events(t.threaded.front(), u, "sim.engine_scaling"))
      scaling = ratio(untraced_wall, wall_threaded);
  }

  const double faults = drv(&DriverStats::page_faults);
  const double coalesced = drv(&DriverStats::faults_coalesced);
  const double ops = drv(&DriverStats::migration_ops);
  const double demand = drv(&DriverStats::demand_evictions);
  const double prefetched = drv(&DriverStats::pages_prefetched);
  const double cycles = sim([](const Outcome& o) { return o.r.cycles; });
  const double events = sim([](const Outcome& o) { return o.r.sim.events_executed; });
  const double pickups = svc(&FaultBackendStats::handler_pickups);
  const double windows = eng(&EngineRunStats::windows);
  const double pattern_lookups = event(EventType::kPatternHit) +
                                 event(EventType::kPatternMiss) +
                                 event(EventType::kPatternHitEmpty);
  const double untraced_run_ns =
      sum_of_minima(t.untraced, [](const Outcome& o) { return o.run_s; }) * 1e9;

  double slowdown_max = 0.0, link_util_max = 0.0, max_skew = 0.0, heap_peak = 0.0;
  FleetRunResult fleet;  // the fleet workload is its one experiment
  for (std::size_t i = 0; i < u.size(); ++i) {
    const RunResult& r = u[i].r;
    for (const TenantRunResult& tt : r.tenants)
      slowdown_max = std::max(slowdown_max, tt.slowdown_vs_solo);
    for (const LinkRunResult& l : r.links)
      link_util_max = std::max(link_util_max, l.utilisation);
    max_skew = std::max(max_skew, static_cast<double>(engine[i].r.engine_stats.max_skew));
    heap_peak = std::max(heap_peak, static_cast<double>(r.sim.event_heap_peak));
    if (r.fleet.enabled) fleet = r.fleet;
  }

  const auto one = [](const char* name, const char* unit, double v) {
    return Metric{name, unit, v, {v}};
  };
  LayerMetrics out;
  // Fleet jobs draw their workloads inside FleetSystem, out of the probe's
  // reach; only single-driver systems that evict time a shootdown.
  if (calls(Layer::kWorkloads) > 0) {
    out.scoped.push_back(one("workloads.ms", "ms", workloads_ms));
    out.scoped.push_back(one("workloads.next_ns", "ns",
                             ratio(workloads_ms * 1e6, calls(Layer::kWorkloads))));
  }
  if (shootdown_pages > 0) {
    out.scoped.push_back(one("gpu.shootdown_ms", "ms", shootdown_ms));
    out.scoped.push_back(one("gpu.shootdown_ns_per_page", "ns",
                             ratio(shootdown_ms * 1e6, shootdown_pages)));
  }
  if (!t.threaded.empty()) {
    out.scoped.push_back(one("sim.engine_wall_threaded_s", "s", wall_threaded));
    out.scoped.push_back(one("sim.engine_scaling", "x", scaling));
  }
  if (fleet.enabled)
    out.scoped.push_back(one("fleet.host_ms_per_job", "ms",
                             ratio(untraced_wall * 1e3,
                                   static_cast<double>(fleet.jobs_submitted))));
  out.all = {
      one("core.construct_ms", "ms",
          sum_of_minima(t.traced, [](const Outcome& o) { return o.setup_s; }) * 1e3),
      one("workloads.calls", "count", calls(Layer::kWorkloads)),
      one("gpu.shootdown_share", "frac", ratio(shootdown_ms, run_ms)),
      one("gpu.shootdown_pages", "count", shootdown_pages),
      one("gpu.accesses", "count", gpu(&Gpu::Stats::accesses)),
      one("gpu.l1_tlb_hit", "frac", hit(&Gpu::Stats::l1_tlb_hits, &Gpu::Stats::l1_tlb_misses)),
      one("gpu.l2_tlb_hit", "frac", hit(&Gpu::Stats::l2_tlb_hits, &Gpu::Stats::l2_tlb_misses)),
      one("gpu.l1d_hit", "frac", hit(&Gpu::Stats::l1d_hits, &Gpu::Stats::l1d_misses)),
      one("gpu.l2c_hit", "frac", hit(&Gpu::Stats::l2c_hits, &Gpu::Stats::l2c_misses)),
      one("gpu.walk_cycles_per_walk", "cycles",
          ratio(gpu(&Gpu::Stats::walk_cycles), gpu(&Gpu::Stats::walks_performed))),
      one("gpu.l1_tlb_large_hit", "frac",
          ratio(gpu(&Gpu::Stats::l1_tlb_large_hits),
                gpu(&Gpu::Stats::l1_tlb_hits) + gpu(&Gpu::Stats::l1_tlb_misses))),
      one("uvm.faults", "count", faults),
      one("uvm.coalesced_frac", "frac", ratio(coalesced, faults + coalesced)),
      one("uvm.migration_ops", "count", ops),
      one("uvm.pages_in", "count", drv(&DriverStats::pages_migrated_in)),
      one("uvm.pages_evicted", "count", drv(&DriverStats::pages_evicted)),
      one("uvm.demand_evict_frac", "frac",
          ratio(demand, demand + drv(&DriverStats::pre_evictions))),
      one("uvm.fault_wait_kcycles", "kcycles",
          ratio(drv(&DriverStats::fault_wait_cycles), faults) / 1e3),
      one("uvm.h2d_util", "frac",
          ratio(sim([](const Outcome& o) {
                  return o.r.h2d_utilisation * static_cast<double>(o.r.cycles);
                }),
                cycles)),
      one("uvm.coalesces", "count", drv(&DriverStats::coalesces)),
      one("uvm.splinters", "count", drv(&DriverStats::splinters)),
      one("uvm.large_frames_evicted", "count", drv(&DriverStats::large_frames_evicted)),
      one("policy.ms", "ms", policy_ms),
      one("policy.calls", "count", calls(Layer::kPolicy)),
      one("policy.ns_per_call", "ns", ratio(policy_ms * 1e6, calls(Layer::kPolicy))),
      one("policy.wrong_evictions", "count", event(EventType::kWrongEvictionDetected)),
      one("policy.untouched_evict_frac", "frac",
          ratio(sum_over(tr, [](const Outcome& o) { return o.untouched_pages; }),
                sum_over(tr, [](const Outcome& o) { return o.evicted_pages; }))),
      one("prefetch.ms", "ms", prefetch_ms),
      one("prefetch.calls", "count", calls(Layer::kPrefetch)),
      one("prefetch.ns_per_call", "ns", ratio(prefetch_ms * 1e6, calls(Layer::kPrefetch))),
      one("prefetch.pages", "count", prefetched),
      one("prefetch.pages_per_op", "pages", ratio(prefetched, ops)),
      one("prefetch.pattern_hit_frac", "frac",
          ratio(event(EventType::kPatternHit), pattern_lookups)),
      one("faultsvc.pickups", "count", pickups),
      one("faultsvc.faults_per_pickup", "faults",
          ratio(svc(&FaultBackendStats::faults_enqueued), pickups)),
      one("faultsvc.queue_full", "count", svc(&FaultBackendStats::queue_full_stalls)),
      one("faultsvc.busy_frac", "frac",
          ratio(svc(&FaultBackendStats::handler_busy_cycles),
                sim([](const Outcome& o) {
                  return o.r.gpu_fault_backend ? o.r.cycles : Cycle{0};
                }))),
      one("tenancy.slowdown_max", "x", slowdown_max),
      one("sim.events", "count", events),
      one("sim.events_per_access", "events", ratio(events, gpu(&Gpu::Stats::accesses))),
      one("sim.ns_per_event", "ns", ratio(untraced_run_ns, events)),
      one("sim.heap_peak", "events", heap_peak),
      one("sim.oversize_frac", "frac",
          ratio(sim([](const Outcome& o) { return o.r.sim.oversize_events; }), events)),
      one("sim.residual_ms", "ms",
          run_ms - policy_ms - prefetch_ms - workloads_ms - shootdown_ms - sink_ms),
      one("sim.engine_windows", "count", windows),
      one("sim.engine_stall_window_frac", "frac",
          ratio(eng(&EngineRunStats::stall_windows), windows)),
      one("sim.engine_messages", "count", eng(&EngineRunStats::messages)),
      one("sim.engine_barrier_waits", "count", eng(&EngineRunStats::barrier_waits)),
      one("sim.engine_max_skew", "cycles", max_skew),
      one("fabric.remote_accesses", "count", drv(&DriverStats::remote_accesses)),
      one("fabric.peer_fetches", "count", drv(&DriverStats::peer_fetches)),
      one("fabric.faults_forwarded", "count", drv(&DriverStats::faults_forwarded)),
      one("fabric.link_util_max", "frac", link_util_max),
      one("fleet.jobs_completed", "count", static_cast<double>(fleet.jobs_completed)),
      one("fleet.rejection_rate", "frac", fleet.rejection_rate),
      one("fleet.queue_wait_p95", "kcycles", fleet.p95_queue_wait / 1e3),
      one("fleet.slowdown_p50", "x", fleet.slowdown_p50),
      one("fleet.fairness_min", "index", fleet.fairness_min),
      one("obs.events", "count", sum_over(tr, [](const Outcome& o) { return o.events_total; })),
      one("obs.sink_ms", "ms", sink_ms),
      one("ledger.trace_overhead_pct", "%", overhead_pct),
  };
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// "uvmsim <git describe> (<build type>)" split into its two parts.
std::pair<std::string, std::string> version_parts() {
  const std::string v = uvmsim_version_string();
  const auto open = v.rfind(" (");
  const std::string head = v.substr(0, open);
  const std::string describe = head.substr(head.find(' ') + 1);
  const std::string type =
      open == std::string::npos ? "unknown" : v.substr(open + 2, v.size() - open - 3);
  return {describe, type};
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  std::printf("  %-28s %-12s %14s %14s %14s %14s %4s\n", "metric", "unit", "value",
              "median", "q1", "q3", "n");
  for (const Metric& m : ms) {
    const auto q = quartiles(m.samples);
    std::printf("  %-28s %-12s %14.6g %14.6g %14.6g %14.6g %4zu\n", m.name.c_str(),
                m.unit.c_str(), m.value, median(m.samples), q[0], q[2],
                m.samples.size());
  }
  std::fflush(stdout);
}

std::string metrics_json(const std::vector<Metric>& ms, bool full) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit);
    if (full) {
      const auto q = quartiles(m.samples);
      out += ", \"median\": " + num(median(m.samples)) + ", \"q1\": " + num(q[0]) +
             ", \"q3\": " + num(q[2]) + ", \"n\": " + std::to_string(m.samples.size()) +
             ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k)
        out += (k ? ", " : "") + num(m.samples[k]);
      out += "]";
    }
    out += "}";
  }
  return out + "}";
}

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = kBudgetSeconds;
  bool traced = false;
  bool smoke = false;
  std::string out;
  std::string trace_out;
};

/// Samples of one experiment across passes, for the result file.
std::string samples_json(const std::vector<Pass>& passes, std::size_t i,
                         double Outcome::*field) {
  std::string out = "[";
  for (std::size_t p = 0; p < passes.size(); ++p)
    out += (p ? ", " : "") + num(passes[p][i].*field);
  return out + "]";
}

struct Measured {
  Runs runs;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  u64 attempted = 0;
  std::vector<std::string> failures;
};

void write_result_file(const Options& opt, const Suite& s, const Measured& m) {
  std::ofstream os(opt.out);
  if (!os) throw std::runtime_error("cannot open " + opt.out);
  const auto [describe, build_type] = version_parts();
  const Runs& r = m.runs;
  os << "{\"schema\": \"uvmsim-ledger-v1\", \"workload\": " << quoted(s.name)
     << ", \"mode\": " << quoted(opt.traced ? "traced" : "untraced")
     << ",\n \"provenance\": {\"git_describe\": " << quoted(describe)
     << ", \"build_type\": " << quoted(build_type)
     << ", \"compiler\": " << quoted(compiler()) << ", \"nproc\": " << nproc()
     << ", \"cpu_model\": " << quoted(cpu_model()) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << num(opt.seconds) << ", \"passes\": " << r.untraced.size()
     << ", \"traced_passes\": " << r.traced.size()
     << ", \"threaded_passes\": " << r.threaded.size()
     << ", \"threaded_engine_threads\": " << s.threaded << "},\n"
     << " \"correct\": " << (m.failures.empty() ? "true" : "false")
     << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failures.size()
     << ",\n \"failures\": [";
  for (std::size_t i = 0; i < m.failures.size(); ++i)
    os << (i ? ", " : "") << quoted(m.failures[i]);
  os << "],\n \"metrics\": " << metrics_json(m.metrics, true)
     << ",\n \"results\": " << metrics_json(m.extra, true) << ",\n \"experiments\": [";
  for (std::size_t i = 0; i < s.exps.size(); ++i) {
    os << (i ? ",\n  " : "\n  ") << "{\"name\": " << quoted(s.exps[i].name)
       << ", \"setup_s\": " << samples_json(r.untraced, i, &Outcome::setup_s)
       << ", \"run_s\": " << samples_json(r.untraced, i, &Outcome::run_s)
       << ", \"wall_s\": " << samples_json(r.untraced, i, &Outcome::wall_s);
    if (!r.traced.empty())
      os << ", \"traced_wall_s\": " << samples_json(r.traced, i, &Outcome::wall_s);
    if (!r.threaded.empty())
      os << ", \"threaded_wall_s\": " << samples_json(r.threaded, i, &Outcome::wall_s);
    os << "}";
  }
  os << "]}\n";
}

/// Spans of every traced experiment, kept in memory until exit: an
/// `experiment` span with `setup` and `run` children, and under `run` one
/// aggregate span per probed layer. All spans of an experiment share its id.
void write_spans(const std::string& path, const Suite& s,
                 const std::vector<Pass>& traced) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  u64 id = 0;
  for (std::size_t p = 0; p < traced.size(); ++p)
    for (std::size_t i = 0; i < traced[p].size(); ++i, ++id) {
      const Outcome& o = traced[p][i];
      const auto ns = [](double sec) { return std::to_string(static_cast<u64>(sec * 1e9)); };
      os << "{\"id\": " << id << ", \"span\": \"experiment\", \"exp\": "
         << quoted(s.exps[i].name) << ", \"pass\": " << p
         << ", \"start_ns\": " << ns(o.start_s) << ", \"dur_ns\": " << ns(o.wall_s) << "}\n"
         << "{\"id\": " << id << ", \"span\": \"setup\", \"parent\": \"experiment\", "
         << "\"start_ns\": " << ns(o.start_s) << ", \"dur_ns\": " << ns(o.setup_s) << "}\n"
         << "{\"id\": " << id << ", \"span\": \"run\", \"parent\": \"experiment\", "
         << "\"start_ns\": " << ns(o.start_s + o.setup_s) << ", \"dur_ns\": "
         << ns(o.run_s) << "}\n";
      for (std::size_t l = 0; l < kNumLayers; ++l) {
        const auto layer = static_cast<Layer>(l);
        os << "{\"id\": " << id << ", \"span\": " << quoted(layer_name(layer))
           << ", \"parent\": \"run\", \"total_ns\": " << o.layers.ns[l]
           << ", \"self_ns\": " << o.layers.self_ns(layer)
           << ", \"calls\": " << o.layers.calls[l] << "}\n";
      }
    }
}

// ---------------------------------------------------------------------------
// Measuring one workload.

/// Record every failed output check of one pass: each outcome against its
/// own checks, and against the simulated statistics of the first timed pass.
void validate(const Suite& s, const Pass& p, const char* what, const Pass& reference,
              Measured& m) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    ++m.attempted;
    std::string why = p[i].error;
    if (why.empty() && p[i].digest != reference[i].digest)
      why = std::string("simulated stats differ from pass 1 (") + what + ")";
    if (!why.empty()) m.failures.push_back(s.name + " " + s.exps[i].name + ": " + why);
  }
}

/// Every pass against the first untraced one.
void validate(const Suite& s, Measured& m) {
  const Pass& ref = m.runs.untraced.front();
  for (const Pass& p : m.runs.untraced) validate(s, p, "rerun", ref, m);
  for (const Pass& p : m.runs.threaded) validate(s, p, "1 vs N engine threads", ref, m);
  for (const Pass& p : m.runs.traced) validate(s, p, "traced vs untraced", ref, m);
}

/// `count` passes (or rounds) sized for kBudgetSeconds, scaled to `seconds`.
int scaled(int count, double seconds, int min) {
  return std::max(min, static_cast<int>(std::lround(count * seconds / kBudgetSeconds)));
}

Measured measure(const Suite& s, const Options& opt) {
  Measured m;
  Runs& r = m.runs;
  // The untimed warm-up: a threaded pass where there is one (it also checks
  // 1 vs N engine threads), else the first experiment.
  const Pass warmup = s.threaded != 0 ? run_pass(s, false, s.threaded)
                                      : Pass{run_one(s.exps.front().spec, false)};
  if (!opt.traced) {
    double rss_mb = 0.0;
    for (int i = scaled(s.passes, opt.seconds, kMinPasses); i > 0; --i) {
      r.untraced.push_back(run_pass(s, false));
      if (r.untraced.size() == 1) rss_mb = peak_rss_mb();
    }
    m.metrics = end_to_end(r.untraced, rss_mb);
  } else {
    for (int i = scaled(s.rounds, opt.seconds, 1); i > 0; --i) {
      r.untraced.push_back(run_pass(s, false));
      if (s.threaded != 0) r.threaded.push_back(run_pass(s, false, s.threaded));
      r.traced.push_back(run_pass(s, true));
    }
  }

  validate(s, m);
  validate(s, warmup, s.threaded != 0 ? "warm-up, 1 vs N engine threads" : "warm-up",
           r.untraced.front(), m);
  m.extra = results(s, r.untraced.front(),
                    ratio(static_cast<double>(m.failures.size()),
                          static_cast<double>(m.attempted)));
  if (opt.traced) {
    LayerMetrics l = per_layer(r);
    m.metrics = std::move(l.all);
    m.extra.insert(m.extra.end(), l.scoped.begin(), l.scoped.end());
  }
  return m;
}

// ---------------------------------------------------------------------------
// --smoke: every workload, shortened, untraced and traced, cross-checked
// against run_experiment().

int smoke(const Options& base, u32 threads) {
  const Clock::time_point t0 = Clock::now();
  std::string body;
  int failed = 0;
  for (const std::string& w : kWorkloads) {
    const Suite s = make_suite(w, base.seed, true, threads);
    Measured m;
    Runs& r = m.runs;
    r.untraced = {run_pass(s, false)};
    const double rss_mb = peak_rss_mb();
    if (s.threaded != 0) r.threaded = {run_pass(s, false, s.threaded)};
    r.traced = {run_pass(s, true)};
    validate(s, m);
    const std::vector<Metric> e2e = end_to_end(r.untraced, rss_mb);
    m.extra = results(s, r.untraced.front(), 0.0);
    LayerMetrics l = per_layer(r);
    m.extra.insert(m.extra.end(), l.scoped.begin(), l.scoped.end());

    // The ledger's systems, solo baselines included, must reproduce what
    // users run.
    for (std::size_t i = 0; i < s.exps.size(); ++i) {
      const LabelledResult ref = run_experiment(s.exps[i].spec);
      if (digest(ref.result) != r.untraced.front()[i].digest)
        m.failures.push_back(w + " " + s.exps[i].name +
                             ": simulated stats differ from run_experiment()");
    }

    for (const std::string& f : m.failures) std::cerr << "uvmbench --smoke: FAIL " << f << "\n";
    failed += static_cast<int>(m.failures.size());
    std::cout << "smoke " << w << ": " << s.exps.size() << " experiments, "
              << (m.failures.empty() ? "ok" : "FAILED") << "\n";
    body += (body.empty() ? "\n  " : ",\n  ") + quoted(w) +
            ": {\"end_to_end\": " + metrics_json(e2e, false) +
            ", \"per_layer\": " + metrics_json(l.all, false) +
            ", \"results\": " + metrics_json(m.extra, false) + "}";
  }
  if (!base.out.empty()) {
    std::ofstream os(base.out);
    if (!os) throw std::runtime_error("cannot open " + base.out);
    os << "{\"schema\": \"uvmsim-ledger-smoke-v1\", \"workloads\": {" << body << "}}\n";
  }
  std::cout << "smoke: " << num(seconds_since(t0)) << " s, "
            << (failed == 0 ? "ok" : "FAILED") << "\n";
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "uvmbench: " << why
            << "\nusage: uvmbench --workload fig8|fit|fabric4|fleet|mixed [--seed N]\n"
               "                [--seconds S] [--traced | --trace 0|1]\n"
               "                [--trace-out spans.jsonl] [--out result.json]\n"
               "       uvmbench --smoke [--seed N] [--out smoke.json]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--traced") o.traced = true;
      else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.traced = v == "1";
      } else if (a == "--trace-out") o.trace_out = value();
      else if (a == "--out") o.out = value();
      else if (a == "--smoke") o.smoke = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!o.smoke &&
      std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) == kWorkloads.end())
    usage("--workload must be one of fig8, fit, fabric4, fleet, mixed");
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. With glibc's dynamic thresholds the
  // allocator switches, at a pass that differs from run to run, between
  // reusing freed memory and faulting it in afresh from the kernel, and
  // set-up time jumps threefold; a host under memory contention makes the
  // page faults noisier still.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Options opt = parse(argc, argv);
  const u32 threads = nproc();
  register_probes();
  try {
    if (opt.smoke) return smoke(opt, threads);

    const Suite s = make_suite(opt.workload, opt.seed, false, threads);
    const Measured m = measure(s, opt);
    const std::vector<Pass>& passes = opt.traced ? m.runs.traced : m.runs.untraced;

    std::cout << "ledger " << s.name << " (" << (opt.traced ? "traced" : "untraced")
              << "): seed " << opt.seed << ", " << passes.size() << " passes x "
              << s.exps.size() << " experiments, " << uvmsim_version_string() << ", "
              << threads << " cpus\n";
    print_table(opt.traced ? "per-layer metrics" : "end-to-end metrics", m.metrics);
    print_table("workload-specific results", m.extra);
    if (!opt.out.empty())
      write_result_file(opt, s, m);
    if (!opt.trace_out.empty() && opt.traced)
      write_spans(opt.trace_out, s, m.runs.traced);
    for (const std::string& f : m.failures) std::cerr << "uvmbench: FAIL " << f << "\n";

    std::cout << "{\"correct\": " << (m.failures.empty() ? "true" : "false")
              << ", \"attempted\": " << m.attempted
              << ", \"failed\": " << m.failures.size()
              << ", \"metrics\": " << metrics_json(m.metrics, false) << "}\n";
    return m.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "uvmbench: " << e.what() << "\n";
    return 1;
  }
}
