// Multi-tenant determinism (ISSUE satellite 3): the same tenant spec run
// twice produces byte-identical JSONL traces and identical per-tenant
// statistics — including through the threaded sweep runner — and the
// single-tenant path stays byte-for-byte what it was before tenancy
// existed (no tenant field, no table attached).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "harness/runner.hpp"
#include "obs/trace_sink.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

struct TracedMultiRun {
  std::string jsonl;
  RunResult result;
};

TracedMultiRun traced_multi_run(TenantMode mode) {
  const auto a = make_benchmark("NW");
  const auto b = make_benchmark("HOT");
  const std::vector<const Workload*> ws{a.get(), b.get()};
  MultiTenantSystem sys(SystemConfig{}, presets::cppe(), ws, 0.5, mode);
  std::ostringstream os;
  JsonlSink jsonl(os);
  sys.recorder().add_sink(&jsonl);
  TracedMultiRun out;
  out.result = sys.run();
  EXPECT_TRUE(out.result.completed);
  out.jsonl = os.str();
  return out;
}

TEST(MultiTenantDeterminism, SameSpecByteIdenticalTraceAndStats) {
  const TracedMultiRun x = traced_multi_run(TenantMode::kQuota);
  const TracedMultiRun y = traced_multi_run(TenantMode::kQuota);
  EXPECT_EQ(x.jsonl, y.jsonl);
  EXPECT_EQ(x.result.cycles, y.result.cycles);
  ASSERT_EQ(x.result.tenants.size(), y.result.tenants.size());
  for (std::size_t i = 0; i < x.result.tenants.size(); ++i) {
    const TenantStats& a = x.result.tenants[i].stats;
    const TenantStats& b = y.result.tenants[i].stats;
    EXPECT_EQ(x.result.tenants[i].finish_cycle, y.result.tenants[i].finish_cycle);
    EXPECT_EQ(a.page_faults, b.page_faults);
    EXPECT_EQ(a.faults_coalesced, b.faults_coalesced);
    EXPECT_EQ(a.pages_migrated_in, b.pages_migrated_in);
    EXPECT_EQ(a.pages_evicted, b.pages_evicted);
    EXPECT_EQ(a.evicted_by_self, b.evicted_by_self);
    EXPECT_EQ(a.evicted_by_others, b.evicted_by_others);
    EXPECT_EQ(a.fault_wait_cycles, b.fault_wait_cycles);
  }
}

TEST(MultiTenantDeterminism, MultiTenantTraceCarriesTenantField) {
  const TracedMultiRun r = traced_multi_run(TenantMode::kShared);
  EXPECT_NE(r.jsonl.find("\"tenant\":0"), std::string::npos);
  EXPECT_NE(r.jsonl.find("\"tenant\":1"), std::string::npos);
}

// The single-tenant trace schema is untouched by the tenancy layer: no
// table is ever attached, so no event carries a tenant field (byte-identity
// with pre-tenancy goldens is asserted by integration/golden_test).
TEST(MultiTenantDeterminism, SingleTenantTraceHasNoTenantField) {
  const auto wl = make_benchmark("NW");
  UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.5);
  std::ostringstream os;
  JsonlSink jsonl(os);
  sys.recorder().add_sink(&jsonl);
  const RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.trace_events_recorded, 0u);
  EXPECT_EQ(os.str().find("tenant"), std::string::npos);
}

// Threaded sweep: multi-tenant experiments (with their inline solo
// baselines) are deterministic under the parallel runner, and repeated
// sweeps agree field-for-field.
TEST(MultiTenantDeterminism, ThreadedSweepIsReproducible) {
  std::vector<ExperimentSpec> specs;
  for (const TenantMode mode : {TenantMode::kShared, TenantMode::kQuota}) {
    ExperimentSpec s;
    s.workload = "NW+HOT";
    s.label = kTenantModeNames.name(mode);
    s.policy = presets::cppe();
    s.oversub = 0.5;
    s.tenants = {"NW", "HOT"};
    s.tenant_mode = mode;
    specs.push_back(std::move(s));
  }
  const auto x = run_sweep(specs, 2);
  const auto y = run_sweep(specs, 2);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].result.cycles, y[i].result.cycles);
    EXPECT_EQ(x[i].result.driver.page_faults, y[i].result.driver.page_faults);
    EXPECT_EQ(x[i].result.jain_fairness, y[i].result.jain_fairness);
    ASSERT_EQ(x[i].result.tenants.size(), 2u);
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(x[i].result.tenants[t].finish_cycle,
                y[i].result.tenants[t].finish_cycle);
      EXPECT_EQ(x[i].result.tenants[t].slowdown_vs_solo,
                y[i].result.tenants[t].slowdown_vs_solo);
      EXPECT_GT(x[i].result.tenants[t].slowdown_vs_solo, 0.0);
    }
  }
}

}  // namespace
}  // namespace uvmsim
