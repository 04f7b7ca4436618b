// Coherence at every shootdown. A handler registered after the Gpus (as
// bench/ledger registers its bracket) runs once every Gpu on the driver has
// invalidated the departing page, so no TLB may still hold a per-page entry
// for it and no data cache a line of it. Checked on one oversubscribed Gpu
// (with 2 MB whole-frame eviction too), on every tenant's Gpu of a shared
// driver, and on every device of a 4-GPU fabric under both engines, where a
// peer's unmap arrives as a remote shootdown (kInvalidFrame).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "fabric/fabric_system.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

/// Shootdowns one driver issued, local and remote, and how many of them
/// left something of the page in one of the watched Gpus.
struct Audit {
  u64 local = 0, remote = 0, stale = 0;

  void watch(UvmDriver& driver, std::vector<const Gpu*> gpus) {
    driver.add_shootdown_handler([this, gpus](PageId p, FrameId f) {
      ++(f == kInvalidFrame ? remote : local);
      for (const Gpu* g : gpus) stale += g->holds(p, f) ? 1 : 0;
    });
  }
};

RunResult audit_single(const char* abbr, double oversub, bool large_pages,
                       Audit& audit) {
  PolicyConfig pol = presets::cppe();
  pol.large_pages = large_pages;
  const auto wl = make_benchmark(abbr);
  UvmSystem sys(SystemConfig{}, pol, *wl, oversub);
  audit.watch(sys.driver(), {&sys.gpu()});
  return sys.run();
}

TEST(ShootdownCoherence, OversubscribedGpuHoldsNothingOfAnEvictedPage) {
  Audit audit;
  const RunResult r = audit_single("HOT", 0.5, false, audit);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(audit.local, 0u);
  EXPECT_EQ(audit.local, r.driver.pages_evicted);
  EXPECT_EQ(audit.remote, 0u);
  EXPECT_EQ(audit.stale, 0u);
}

TEST(ShootdownCoherence, WholeFrameEvictionLeavesNoPageBehind) {
  Audit audit;
  const RunResult r = audit_single("HOT", 0.75, true, audit);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.driver.large_frames_evicted, 0u);
  EXPECT_EQ(audit.local, r.driver.pages_evicted);
  EXPECT_EQ(audit.stale, 0u);
}

TEST(ShootdownCoherence, EveryTenantGpuOnTheSharedDriverIsClean) {
  const auto a = make_benchmark("SRD"), b = make_benchmark("HOT");
  PolicyConfig pol = presets::cppe();
  pol.large_pages = true;
  MultiTenantSystem sys(SystemConfig{}, pol, {a.get(), b.get()}, 0.9,
                        TenantMode::kQuota);
  Audit audit;
  audit.watch(sys.driver(), {&sys.gpu(0), &sys.gpu(1)});
  const RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.driver.large_frames_evicted, 0u);
  EXPECT_EQ(audit.local, r.driver.pages_evicted);
  EXPECT_EQ(audit.stale, 0u);
}

void audit_fabric(EngineKind engine) {
  const auto wl = make_benchmark("NW");
  FabricConfig fab;
  fab.gpus = 4;
  fab.topology = FabricKind::kSwitch;
  EngineConfig eng;
  eng.kind = engine;
  eng.threads = 2;
  FabricSystem sys(SystemConfig{}, presets::cppe(), *wl, 0.5, fab, eng);
  // One audit per device: under the sharded engine each runs on the shard
  // that owns its driver, so the counters are never shared between threads.
  std::vector<Audit> audits(fab.gpus);
  for (u32 d = 0; d < fab.gpus; ++d) audits[d].watch(sys.driver(d), {&sys.gpu(d)});
  EXPECT_TRUE(sys.run().completed);
  Audit total;
  for (const Audit& a : audits) {
    total.local += a.local;
    total.remote += a.remote;
    total.stale += a.stale;
  }
  EXPECT_GT(total.local, 0u);
  EXPECT_GT(total.remote, 0u);
  EXPECT_EQ(total.stale, 0u);
}

TEST(ShootdownCoherence, FabricPeersDropRemoteLinesUnderTheSequentialEngine) {
  audit_fabric(EngineKind::kSequential);
}

TEST(ShootdownCoherence, FabricPeersDropRemoteLinesUnderTheShardedEngine) {
  audit_fabric(EngineKind::kSharded);
}

}  // namespace
}  // namespace uvmsim
