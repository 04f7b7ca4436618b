#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/policy_factory.hpp"

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
  specs[1].trace_out = "/nonexistent-dir-uvmsim/trace.jsonl";  // unopenable
  EXPECT_THROW(run_sweep(specs, 4), std::runtime_error);
  EXPECT_THROW(run_sweep(specs, 1), std::runtime_error);
}

TEST(Runner, EmptySweepIsFine) {
  EXPECT_TRUE(run_sweep({}).empty());
}

// Sweeps of sharded-engine experiments must not fork threads-squared: the
// sweep pool divides down by the engines' worker demand.
TEST(Runner, SweepWorkerCapPreventsThreadOversubscription) {
  // Sequential engines: no division, 0 resolves to hardware.
  EXPECT_EQ(sweep_worker_cap(0, 8, 1), 8u);
  EXPECT_EQ(sweep_worker_cap(6, 8, 1), 6u);
  // Sharded engines: sweep x engine stays ~hardware.
  EXPECT_EQ(sweep_worker_cap(0, 16, 4), 4u);
  EXPECT_EQ(sweep_worker_cap(8, 16, 4), 4u);
  EXPECT_EQ(sweep_worker_cap(2, 16, 4), 2u);  // explicit request below cap
  // Engine demand >= hardware: still one sweep worker, never zero.
  EXPECT_EQ(sweep_worker_cap(0, 4, 8), 1u);
  EXPECT_EQ(sweep_worker_cap(0, 0, 1), 1u);
}

TEST(Runner, EngineThreadsOfResolvesShardsAndFallbacks) {
  ExperimentSpec seq;
  seq.workload = "STN";
  EXPECT_EQ(engine_threads_of(seq), 1u);

  ExperimentSpec fab = seq;
  fab.engine.kind = EngineKind::kSharded;
  fab.engine.threads = 8;
  fab.fabric.gpus = 4;
  EXPECT_EQ(engine_threads_of(fab), 4u);  // capped at shard count

  ExperimentSpec fallback = fab;
  fallback.fabric.gpus = 1;  // single GPU: engine falls back to sequential
  EXPECT_EQ(engine_threads_of(fallback), 1u);

  ExperimentSpec fleet = seq;
  fleet.engine.kind = EngineKind::kSharded;
  fleet.engine.threads = 16;
  fleet.fleet.enabled = true;
  fleet.fleet.devices = 4;
  EXPECT_EQ(engine_threads_of(fleet), 5u);  // control shard + 4 devices
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
