// MultiTenantSystem end-to-end: every sharing mode drives all tenants to
// completion through the one shared driver stack, and the mode semantics
// hold — partitioned never evicts across tenants, quotas bound partitioned
// usage, shared mode exhibits the cross-tenant interference the fairness
// metrics exist to measure.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/policy_factory.hpp"
#include "harness/experiment.hpp"
#include "tenancy/fairness.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

struct Pair {
  std::unique_ptr<Workload> a, b;
  std::vector<const Workload*> ptrs;
  explicit Pair(const char* wa = "NW", const char* wb = "HOT")
      : a(make_benchmark(wa)), b(make_benchmark(wb)), ptrs{a.get(), b.get()} {}
};

RunResult run_pair(const Pair& p, TenantMode mode,
                   EvictionScope scope = EvictionScope::kGlobal,
                   double oversub = 0.5) {
  MultiTenantSystem sys(SystemConfig{}, presets::cppe(), p.ptrs, oversub, mode,
                        scope);
  return sys.run();
}

TEST(MultiTenantSystem, AllModesRunToCompletion) {
  const Pair p;
  for (const TenantMode mode : {TenantMode::kShared, TenantMode::kPartitioned,
                                TenantMode::kQuota}) {
    const RunResult r = run_pair(p, mode);
    EXPECT_TRUE(r.completed) << kTenantModeNames.name(mode);
    ASSERT_EQ(r.tenants.size(), 2u) << kTenantModeNames.name(mode);
    EXPECT_EQ(r.tenant_mode, kTenantModeNames.name(mode));
    for (const TenantRunResult& t : r.tenants) {
      EXPECT_TRUE(t.completed) << kTenantModeNames.name(mode) << " tenant " << t.id;
      EXPECT_GT(t.finish_cycle, 0u);
      EXPECT_GT(t.stats.page_faults, 0u);
      EXPECT_GT(t.stats.pages_migrated_in, 0u);
    }
    // Tenant fault slices partition the driver total.
    EXPECT_EQ(r.tenants[0].stats.page_faults + r.tenants[1].stats.page_faults,
              r.driver.page_faults);
    EXPECT_EQ(r.tenants[0].stats.pages_migrated_in +
                  r.tenants[1].stats.pages_migrated_in,
              r.driver.pages_migrated_in);
    EXPECT_EQ(r.tenants[0].stats.pages_evicted + r.tenants[1].stats.pages_evicted,
              r.driver.pages_evicted);
  }
}

TEST(MultiTenantSystem, PartitionedNeverEvictsAcrossTenants) {
  const Pair p;
  MultiTenantSystem sys(SystemConfig{}, presets::cppe(), p.ptrs, 0.5,
                        TenantMode::kPartitioned);
  const RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  for (const TenantRunResult& t : r.tenants) {
    EXPECT_EQ(t.stats.evicted_by_others, 0u);
    EXPECT_EQ(t.stats.evictions_of_others, 0u);
    EXPECT_EQ(t.stats.evicted_by_self, t.stats.chunks_evicted);
    // Hard quota: a tenant's frames never exceed its static share.
    EXPECT_LE(sys.tenants().used_frames(t.id), t.quota_frames);
    EXPECT_GT(t.quota_frames, 0u);
  }
  // Quotas sum exactly to the pool.
  EXPECT_EQ(r.tenants[0].quota_frames + r.tenants[1].quota_frames,
            r.capacity_pages);
}

TEST(MultiTenantSystem, SharedModeShowsCrossTenantEvictions) {
  const Pair p("NW", "BFS");  // both oversubscribed and fault-heavy
  const RunResult r = run_pair(p, TenantMode::kShared);
  ASSERT_TRUE(r.completed);
  u64 cross = 0;
  for (const TenantRunResult& t : r.tenants) {
    cross += t.stats.evicted_by_others;
    // Attribution is symmetric: chunks this tenant lost to others equal the
    // sum of what others charged as evictions-of-others against it.
    EXPECT_EQ(t.stats.evicted_by_self + t.stats.evicted_by_others,
              t.stats.chunks_evicted);
  }
  EXPECT_GT(cross, 0u);
  EXPECT_EQ(r.tenants[0].stats.evicted_by_others,
            r.tenants[1].stats.evictions_of_others);
  EXPECT_EQ(r.tenants[1].stats.evicted_by_others,
            r.tenants[0].stats.evictions_of_others);
  // Shared mode reports no quota (none is enforced).
  EXPECT_EQ(r.tenants[0].quota_frames, 0u);
}

TEST(MultiTenantSystem, SelfScopePrefersOwnVictims) {
  const Pair p("NW", "BFS");
  const RunResult global = run_pair(p, TenantMode::kShared,
                                    EvictionScope::kGlobal);
  const RunResult self = run_pair(p, TenantMode::kShared, EvictionScope::kSelf);
  ASSERT_TRUE(global.completed);
  ASSERT_TRUE(self.completed);
  u64 cross_global = 0, cross_self = 0;
  for (const TenantRunResult& t : global.tenants)
    cross_global += t.stats.evicted_by_others;
  for (const TenantRunResult& t : self.tenants)
    cross_self += t.stats.evicted_by_others;
  // Evict-own-first can only reduce cross-tenant victims (it falls back to
  // global solely when the initiator owns nothing evictable).
  EXPECT_LT(cross_self, cross_global);
}

TEST(MultiTenantSystem, SoloBaselinesYieldFairnessMetrics) {
  const Pair p;
  MultiTenantSystem sys(SystemConfig{}, presets::cppe(), p.ptrs, 0.5,
                        TenantMode::kQuota);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);

  SystemConfig solo_cfg;
  solo_cfg.num_sms = sys.sms_per_tenant();
  std::vector<Cycle> solos;
  for (const Workload* w : p.ptrs) {
    UvmSystem solo(solo_cfg, presets::cppe(), *w, 0.5);
    solos.push_back(solo.run().cycles);
  }
  apply_solo_baselines(r, solos);
  for (const TenantRunResult& t : r.tenants) EXPECT_GT(t.slowdown_vs_solo, 0.0);
  EXPECT_GT(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0);
}

TEST(MultiTenantSystem, ThreeTenantsShareOneDriver) {
  const auto a = make_benchmark("NW");
  const auto b = make_benchmark("HOT");
  const auto c = make_benchmark("BFS");
  const std::vector<const Workload*> ws{a.get(), b.get(), c.get()};
  MultiTenantSystem sys(SystemConfig{}, presets::cppe(), ws, 0.5,
                        TenantMode::kQuota);
  EXPECT_EQ(sys.tenants().size(), 3u);
  const RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tenants.size(), 3u);
  u64 quota_sum = 0;
  for (const TenantRunResult& t : r.tenants) {
    EXPECT_TRUE(t.completed);
    quota_sum += t.quota_frames;
  }
  EXPECT_EQ(quota_sum, r.capacity_pages);
  EXPECT_EQ(r.workload, "NW+HOT+BFS");
}

// The SM slice divides num_sms by the tenant count, so an empty tenant list
// must fail loudly in every build type, not only where asserts run.
TEST(MultiTenantSystem, RejectsEmptyWorkloadList) {
  EXPECT_THROW(MultiTenantSystem(SystemConfig{}, presets::cppe(), {}, 0.5,
                                 TenantMode::kShared),
               std::invalid_argument);
}

// A solo baseline cut short by the cycle cap would make every slowdown and
// the Jain index meaningless, so it throws instead of being used.
TEST(MultiTenantSystem, TruncatedSoloBaselineThrows) {
  ExperimentSpec spec;
  spec.policy = presets::cppe();
  spec.oversub = 0.5;
  spec.tenants = {"NW", "HOT"};
  spec.max_cycles = 2000;
  EXPECT_THROW((void)run_experiment(spec), std::runtime_error);

  // Without solo baselines the capped run itself is still reported.
  spec.tenant_solo_baselines = false;
  const LabelledResult out = run_experiment(spec);
  EXPECT_FALSE(out.result.completed);
  EXPECT_EQ(out.result.jain_fairness, 0.0);
}

TEST(MultiTenantSystem, SoloBaselinesFillSlowdownAndFairness) {
  const Pair p;
  MultiTenantSystem sys(SystemConfig{}, presets::cppe(), p.ptrs, 0.5,
                        TenantMode::kQuota);
  RunResult r = sys.run();
  sys.run_solo_baselines(r, std::numeric_limits<Cycle>::max());
  for (const TenantRunResult& t : r.tenants) EXPECT_GT(t.slowdown_vs_solo, 0.0);
  EXPECT_GT(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0);
}

}  // namespace
}  // namespace uvmsim
