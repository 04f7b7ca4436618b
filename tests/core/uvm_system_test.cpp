// UvmSystem facade behaviour that the integration suite doesn't cover:
// cycle caps, result field population, data-cache accounting, and which
// slices one run() fills for each shape of system.
#include "core/uvm_system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/policy_factory.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

TEST(UvmSystemTest, CycleCapMarksRunIncomplete) {
  const auto wl = make_benchmark("STN");
  UvmSystem sys(SystemConfig{}, presets::baseline(), *wl, 0.5);
  const RunResult r = sys.run(/*max_cycles=*/1000);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.cycles, 1000u + 1);
}

TEST(UvmSystemTest, ResultIdentifiesConfiguration) {
  const auto wl = make_benchmark("NW");
  UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.75);
  const RunResult r = sys.run();
  EXPECT_EQ(r.workload, "NW");
  EXPECT_EQ(r.eviction_name, "MHPE");
  EXPECT_EQ(r.prefetcher_name, "pattern-aware/s2");
  EXPECT_DOUBLE_EQ(r.oversub, 0.75);
  EXPECT_EQ(r.footprint_pages, wl->footprint_pages());
  EXPECT_EQ(r.capacity_pages,
            static_cast<u64>(0.75 * static_cast<double>(wl->footprint_pages()) + 0.999));
}

TEST(UvmSystemTest, NonMhpePolicyLeavesMhpeFieldsUnset) {
  const auto wl = make_benchmark("HOT");
  UvmSystem sys(SystemConfig{}, presets::baseline(), *wl, 0.5);
  const RunResult r = sys.run();
  EXPECT_FALSE(r.mhpe_used);
  EXPECT_TRUE(r.untouch_history.empty());
  EXPECT_EQ(r.pattern_buffer_peak, 0u);
}

TEST(UvmSystemTest, DataCacheAccountingCoversEveryAccess) {
  SystemConfig cfg;
  cfg.num_sms = 4;
  const auto wl = make_benchmark("STN");
  UvmSystem sys(cfg, presets::baseline(), *wl, 0.5);
  const RunResult r = sys.run();
  const auto& g = r.gpu;
  // Every access goes through the L1D exactly once after translation.
  EXPECT_EQ(g.l1d_hits + g.l1d_misses, g.accesses);
  // L2 sees exactly the L1D misses.
  EXPECT_EQ(g.l2c_hits + g.l2c_misses, g.l1d_misses);
  EXPECT_GT(g.l1d_hits, 0u);  // acc_per_page = 2 guarantees some reuse
}

TEST(UvmSystemTest, SpeedupVsIsSymmetricInverse) {
  const auto wl = make_benchmark("HOT");
  UvmSystem a(SystemConfig{}, presets::baseline(), *wl, 0.5);
  UvmSystem b(SystemConfig{}, presets::cppe(), *wl, 0.5);
  const RunResult ra = a.run(), rb = b.run();
  EXPECT_NEAR(ra.speedup_vs(rb) * rb.speedup_vs(ra), 1.0, 1e-9);
}

// One driver and one Gpu: the policy introspection, and no tenant, device
// or link slice.
TEST(UvmSystemTest, SingleGpuRunCarriesIntrospectionOnly) {
  const auto wl = make_benchmark("NW");
  UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.5);
  const RunResult r = sys.run();
  EXPECT_TRUE(r.mhpe_used);
  EXPECT_TRUE(r.tenants.empty());
  EXPECT_TRUE(r.tenant_mode.empty());
  EXPECT_TRUE(r.devices.empty());
  EXPECT_TRUE(r.links.empty());
  EXPECT_TRUE(r.fabric.empty());
}

// Tenants of one device: a slice per tenant, and no device slice or
// introspection, although both tenants run MHPE.
TEST(UvmSystemTest, TenantRunCarriesTenantSlicesOnly) {
  const auto nw = make_benchmark("NW");
  const auto bfs = make_benchmark("BFS");
  const std::vector<const Workload*> ws{nw.get(), bfs.get()};
  UvmSystem sys(SystemConfig{}, presets::cppe(), ws, 0.5, TenantMode::kQuota);
  const RunResult r = sys.run();
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenant_mode, "quota");
  EXPECT_EQ(r.workload, "NW+BFS");
  EXPECT_TRUE(r.devices.empty());
  EXPECT_TRUE(r.links.empty());
  EXPECT_FALSE(r.mhpe_used);
}

// A 2-GPU ring: a slice per device and per link, and no tenant slice or
// introspection.
TEST(UvmSystemTest, FabricRunCarriesDeviceAndLinkSlicesOnly) {
  const auto wl = make_benchmark("NW");
  FabricConfig ring;
  ring.gpus = 2;
  ring.topology = FabricKind::kRing;
  UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.5, ring);
  const RunResult r = sys.run();
  ASSERT_EQ(r.devices.size(), 2u);
  ASSERT_NE(sys.fabric(), nullptr);
  EXPECT_EQ(r.links.size(), sys.fabric()->topologies().front()->links().size());
  EXPECT_FALSE(r.links.empty());
  EXPECT_EQ(r.fabric, "ring");
  EXPECT_EQ(r.gpus, 2u);
  EXPECT_TRUE(r.tenants.empty());
  EXPECT_FALSE(r.mhpe_used);
}

TEST(UvmSystemTest, SeedChangesChangeRandomisedRuns) {
  const auto wl = make_benchmark("B+T");  // random region draws
  PolicyConfig p1 = presets::cppe(), p2 = presets::cppe();
  p2.seed = p1.seed + 1;
  UvmSystem a(SystemConfig{}, p1, *wl, 0.5);
  UvmSystem b(SystemConfig{}, p2, *wl, 0.5);
  EXPECT_NE(a.run().cycles, b.run().cycles);
}

}  // namespace
}  // namespace uvmsim
