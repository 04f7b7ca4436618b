// Coherence at every shootdown. A handler registered after the Gpus (as
// bench/ledger registers its bracket) runs once every Gpu on the driver has
// invalidated the departing page, so no TLB may still hold a per-page entry
// for it and no data cache a line of it. Checked on one oversubscribed Gpu
// (one workload of each Table II type, one on 40 SMs, and with 2 MB
// whole-frame eviction too), on every tenant's Gpu of a shared driver, on
// every device of a 4-GPU fabric under both engines, where a peer's unmap
// arrives as a remote shootdown (kInvalidFrame), and on a 2-GPU ring whose
// 2 MB regions splinter to surrender a page or spill a chunk. On the
// sequential fabric no page is mapped on two devices at once, save for the
// moment a peer fetch's source surrenders its copy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "fabric/fabric_system.hpp"
#include "tenancy/multi_tenant_system.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

/// Shootdowns one driver issued, local and remote, how many of them left
/// something of the page in one of the watched Gpus (at a local shootdown,
/// remote lines of it too: a page mapped here is read locally), and how
/// often a local one unmapped a page that one of the `peers` still maps.
struct Audit {
  u64 local = 0, remote = 0, stale = 0, mapped_elsewhere = 0;

  void watch(UvmDriver& driver, std::vector<const Gpu*> gpus,
             std::vector<const UvmDriver*> peers = {}) {
    driver.add_shootdown_handler([this, gpus, peers](PageId p, FrameId f) {
      ++(f == kInvalidFrame ? remote : local);
      for (const Gpu* g : gpus)
        stale += g->holds(p, f) || g->holds(p, kInvalidFrame) ? 1 : 0;
      if (f == kInvalidFrame) return;
      for (const UvmDriver* d : peers) mapped_elsewhere += d->page_resident(p) ? 1 : 0;
    });
  }
};

RunResult audit_single(const char* abbr, double oversub, bool large_pages,
                       Audit& audit, const SystemConfig& cfg = {}) {
  PolicyConfig pol = presets::cppe();
  pol.large_pages = large_pages;
  const auto wl = make_benchmark(abbr);
  UvmSystem sys(cfg, pol, *wl, oversub);
  audit.watch(sys.driver(), {&sys.gpu()});
  return sys.run();
}

// One workload of each Table II type (HOT I, KMN II, SRD III, HWL IV, NW V,
// B+T VI), and NW on 40 SMs, more than a 32-bit SM mask has bits.
TEST(ShootdownCoherence, OversubscribedGpuHoldsNothingOfAnEvictedPage) {
  struct Case {
    const char* abbr;
    u32 sms;
  };
  for (const Case c : {Case{"HOT", 0}, Case{"KMN", 0}, Case{"SRD", 0}, Case{"HWL", 0},
                       Case{"NW", 0}, Case{"B+T", 0}, Case{"NW", 40}}) {
    SCOPED_TRACE(std::string(c.abbr) + (c.sms != 0 ? " on 40 SMs" : ""));
    SystemConfig cfg;
    if (c.sms != 0) cfg.num_sms = c.sms;
    Audit audit;
    const RunResult r = audit_single(c.abbr, 0.5, false, audit, cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(audit.local, 0u);
    EXPECT_EQ(audit.local, r.driver.pages_evicted);
    EXPECT_EQ(audit.remote, 0u);
    EXPECT_EQ(audit.stale, 0u);
  }
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

FabricConfig fabric_of(FabricKind topology, u32 gpus) {
  FabricConfig fab;
  fab.gpus = gpus;
  fab.topology = topology;
  return fab;
}

/// Run `abbr` at `oversub` on a fabric, auditing every device, and return
/// the totals with the run's driver counters. The sequential engine runs
/// every driver on one thread, so each audit also reads its peers' page
/// tables; a shard of the sharded engine owns its driver alone and reads no
/// peer.
Audit audit_fabric(const FabricConfig& fab, EngineKind engine, RunResult& r,
                   const char* abbr = "NW", double oversub = 0.5,
                   bool large_pages = false) {
  const auto wl = make_benchmark(abbr);
  PolicyConfig pol = presets::cppe();
  pol.large_pages = large_pages;
  EngineConfig eng;
  eng.kind = engine;
  eng.threads = 2;
  FabricSystem sys(SystemConfig{}, pol, *wl, oversub, fab, eng);
  // One audit per device: under the sharded engine each runs on the shard
  // that owns its driver, so the counters are never shared between threads.
  std::vector<Audit> audits(fab.gpus);
  for (u32 d = 0; d < fab.gpus; ++d) {
    std::vector<const UvmDriver*> peers;
    if (engine == EngineKind::kSequential)
      for (u32 o = 0; o < fab.gpus; ++o)
        if (o != d) peers.push_back(&sys.driver(o));
    audits[d].watch(sys.driver(d), {&sys.gpu(d)}, peers);
  }
  r = sys.run();
  EXPECT_TRUE(r.completed);
  Audit total;
  for (const Audit& a : audits) {
    total.local += a.local;
    total.remote += a.remote;
    total.stale += a.stale;
    total.mapped_elsewhere += a.mapped_elsewhere;
  }
  return total;
}

TEST(ShootdownCoherence, FabricPeersDropRemoteLinesUnderTheSequentialEngine) {
  RunResult r;
  const Audit a =
      audit_fabric(fabric_of(FabricKind::kSwitch, 4), EngineKind::kSequential, r);
  EXPECT_GT(a.local, 0u);
  EXPECT_GT(a.remote, 0u);
  EXPECT_EQ(a.stale, 0u);
  // A peer fetch maps the page at the fetcher before the source surrenders
  // it; no other shootdown may leave the page mapped on another device.
  EXPECT_GT(r.driver.pages_surrendered, 0u);
  EXPECT_EQ(a.mapped_elsewhere, r.driver.pages_surrendered);
}

TEST(ShootdownCoherence, FabricPeersDropRemoteLinesUnderTheShardedEngine) {
  RunResult r;
  const Audit a =
      audit_fabric(fabric_of(FabricKind::kSwitch, 4), EngineKind::kSharded, r);
  EXPECT_GT(a.local, 0u);
  EXPECT_GT(a.remote, 0u);
  EXPECT_EQ(a.stale, 0u);
}

// Under first-touch placement a chunk has no home until its first mapping,
// so a fault still queued on one device must keep the other from fetching
// the same page from the host.
TEST(ShootdownCoherence, TwoGpuRingNeverMapsAPageOnBothDevices) {
  RunResult r;
  const Audit a =
      audit_fabric(fabric_of(FabricKind::kRing, 2), EngineKind::kSequential, r);
  EXPECT_GT(a.local, 0u);
  EXPECT_EQ(a.stale, 0u);
  EXPECT_EQ(a.mapped_elsewhere, r.driver.pages_surrendered);
}

// SRD's 2 MB regions coalesce on affinity homes. A region splinters before
// a threshold-0 peer fetch takes one of its pages, and before one of its
// chunks spills to the peer.
TEST(ShootdownCoherence, LargeFramesOnTheSequentialFabricLeaveNothingBehind) {
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spill" : "migrate");
    FabricConfig fab = fabric_of(FabricKind::kRing, 2);
    fab.placement = PlacementKind::kAffinity;
    if (spill)
      fab.spill = true;
    else
      fab.remote_threshold = 0;
    RunResult r;
    const Audit a = audit_fabric(fab, EngineKind::kSequential, r, "SRD", 0.9,
                                 /*large_pages=*/true);
    EXPECT_GT(r.driver.splinters, 0u);
    EXPECT_EQ(a.stale, 0u);
    EXPECT_EQ(a.mapped_elsewhere, r.driver.pages_surrendered);
  }
}

}  // namespace
}  // namespace uvmsim
