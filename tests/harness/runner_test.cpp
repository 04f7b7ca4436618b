#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/policy_factory.hpp"
#include "obs/interval_metrics.hpp"
#include "obs/trace_sink.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_workload.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

std::vector<ExperimentSpec> small_sweep() {
  std::vector<ExperimentSpec> specs;
  for (const char* w : {"STN", "HOT"})
    for (double ov : {1.0, 0.5}) {
      ExperimentSpec s;
      s.workload = w;
      s.label = std::string(w) + "@" + std::to_string(ov);
      s.policy = presets::baseline();
      s.oversub = ov;
      s.system.num_sms = 4;  // keep the test fast
      specs.push_back(std::move(s));
    }
  return specs;
}

TEST(Runner, ResultsArriveInSpecOrder) {
  const auto specs = small_sweep();
  const auto results = run_sweep(specs, 4);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].spec.label, specs[i].label);
    EXPECT_EQ(results[i].result.workload, specs[i].workload);
    EXPECT_TRUE(results[i].result.completed);
  }
}

TEST(Runner, SingleThreadMatchesMultiThread) {
  const auto specs = small_sweep();
  const auto serial = run_sweep(specs, 1);
  const auto parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles) << i;
    EXPECT_EQ(serial[i].result.driver.page_faults,
              parallel[i].result.driver.page_faults)
        << i;
  }
}

// An exception escaping a worker thread would std::terminate the whole
// process; run_sweep must capture per-experiment exceptions and rethrow the
// first (in spec order) on the calling thread after the workers join.
TEST(Runner, WorkerExceptionPropagatesInsteadOfTerminating) {
  auto specs = small_sweep();
  specs[1].workload = "XYZ";  // unknown workload
  EXPECT_THROW(run_sweep(specs, 4), std::invalid_argument);
  EXPECT_THROW(run_sweep(specs, 1), std::invalid_argument);
}

TEST(Runner, EmptySweepIsFine) {
  EXPECT_TRUE(run_sweep({}).empty());
}

// Tenants, fabric and fleet are mutually exclusive experiment shapes; a
// spec that sets two of them is refused instead of silently running one.
TEST(Runner, RunExperimentRejectsTwoModes) {
  ExperimentSpec base;
  base.workload = "STN";
  base.policy = presets::baseline();
  base.system.num_sms = 2;

  ExperimentSpec tenants_fabric = base;
  tenants_fabric.tenants = {"STN", "HOT"};
  tenants_fabric.fabric.gpus = 2;
  ExperimentSpec fabric_fleet = base;
  fabric_fleet.fabric.gpus = 2;
  fabric_fleet.fleet.enabled = true;
  ExperimentSpec tenants_fleet = base;
  tenants_fleet.tenants = {"STN", "HOT"};
  tenants_fleet.fleet.enabled = true;
  for (const ExperimentSpec& s : {tenants_fabric, fabric_fleet, tenants_fleet})
    EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

// A one-entry tenant list is refused instead of running `workload` alone.
TEST(Runner, RunExperimentRejectsOneTenant) {
  ExperimentSpec s;
  s.workload = "STN";
  s.tenants = {"STN"};
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

// Tenants share one driver, which cannot shard: a tenant run asking for
// the sharded engine is refused instead of running sequentially.
TEST(Runner, RunExperimentRejectsShardedTenants) {
  ExperimentSpec s;
  s.workload = "STN";
  s.tenants = {"STN", "HOT"};
  s.engine.kind = EngineKind::kSharded;
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

// Spill moves an evicted chunk to a peer GPU: it needs a fabric run, and
// the sequential engine, since the sharded one keeps chunks on their device.
// One GPU, a fleet (which builds no fabric) and a tenant run are refused
// instead of running without spill, and the sharded engine at any GPU count.
TEST(Runner, RunExperimentRejectsSpillOffTheSequentialFabric) {
  ExperimentSpec one_gpu;
  one_gpu.workload = "STN";
  one_gpu.fabric.spill = true;
  ExperimentSpec fleet = one_gpu;
  fleet.fleet.enabled = true;
  ExperimentSpec tenants = one_gpu;
  tenants.tenants = {"STN", "HOT"};
  ExperimentSpec sharded1 = one_gpu;
  sharded1.engine.kind = EngineKind::kSharded;
  ExperimentSpec sharded2 = sharded1;
  sharded2.fabric.gpus = 2;
  for (const ExperimentSpec& s : {one_gpu, fleet, tenants, sharded1, sharded2})
    EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

// A caller-built workload runs on one GPU only.
TEST(Runner, RunExperimentRejectsWorkloadOffOneGpu) {
  const auto hot = make_benchmark("HOT");
  ExperimentSpec fabric;
  fabric.workload = "HOT";
  fabric.fabric.gpus = 2;
  ExperimentSpec tenants = fabric;
  tenants.fabric.gpus = 1;
  tenants.tenants = {"HOT", "STN"};
  ExperimentSpec fleet = tenants;
  fleet.tenants.clear();
  fleet.fleet.enabled = true;
  for (const ExperimentSpec& s : {fabric, tenants, fleet})
    EXPECT_THROW((void)run_experiment(s, {}, hot.get()), std::invalid_argument);
}

/// Records the cycles it is finished at.
class FinishProbe final : public TraceSink {
 public:
  void emit(const TraceEvent&) override {}
  void finish(Cycle end) override { ends.push_back(end); }
  std::vector<Cycle> ends;
};

// The caller's sinks see the whole event stream and are finished once, at
// the run's last cycle, and a caller-built workload (here a trace replay of
// NW) replaces make_benchmark(spec.workload). The JSONL filter thins the
// file alone: the ring and interval rows beside it see every event.
TEST(Runner, RunExperimentTracesCallerSinksAndReplaysWorkload) {
  ExperimentSpec spec;
  spec.workload = "STN";  // replaced by the replay
  spec.policy = presets::cppe();
  spec.oversub = 0.5;
  spec.system.num_sms = 4;
  // Uncapped, as the CLI runs: under a finite cap a drained queue's clock
  // fast-forwards to the cap, and the sinks finish there.
  spec.max_cycles = std::numeric_limits<Cycle>::max();
  const auto nw = make_benchmark("NW");
  const TraceWorkload replay(record_trace(
      *nw, spec.system.num_sms * spec.system.warps_per_sm, spec.policy.seed));

  std::ostringstream os;
  JsonlSink jsonl(os, event_bit(EventType::kFaultRaised));
  RingSink ring(1u << 20);
  IntervalMetricsSink intervals;
  FinishProbe probe;
  const RunResult r =
      run_experiment(spec, {&jsonl, &ring, &intervals, &probe}, &replay).result;

  UvmSystem ref(spec.system, spec.policy, replay, spec.oversub);
  RingSink ref_ring(1u << 20);
  IntervalMetricsSink ref_intervals;
  ref.recorder().add_sink(&ref_ring);
  ref.recorder().add_sink(&ref_intervals);
  const RunResult rr = ref.run();
  ref_intervals.finish(ref.queue().now());

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.workload, rr.workload);
  EXPECT_EQ(r.cycles, rr.cycles);
  EXPECT_EQ(first_divergence(ring.events(), ref_ring.events()), std::nullopt);
  EXPECT_EQ(r.trace_events_recorded, ring.size());
  EXPECT_EQ(jsonl.lines_written(), r.driver.page_faults);
  EXPECT_EQ(probe.ends, std::vector<Cycle>{ref.queue().now()});
  std::ostringstream rows, ref_rows;
  intervals.write_csv(rows);
  ref_intervals.write_csv(ref_rows);
  EXPECT_GT(intervals.rows().size(), 1u);
  EXPECT_EQ(rows.str(), ref_rows.str());
}

TEST(Runner, MoreThreadsThanWork) {
  std::vector<ExperimentSpec> specs;
  ExperimentSpec s;
  s.workload = "STN";
  s.policy = presets::baseline();
  s.oversub = 1.0;
  s.system.num_sms = 2;
  specs.push_back(std::move(s));
  const auto results = run_sweep(specs, 64);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].result.completed);
}

}  // namespace
}  // namespace uvmsim
