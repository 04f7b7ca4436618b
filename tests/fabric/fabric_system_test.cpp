// FabricSystem end-to-end: single-GPU equivalence with UvmSystem (the
// byte-identity acceptance criterion), 2- and 4-GPU determinism, placement
// homing, the remote-vs-migrate threshold, eviction spill-to-peer
// relieving the host PCIe write-back path, and its refusal under the
// sharded engine.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "fabric/fabric_system.hpp"
#include "fabric/sharded_fabric.hpp"
#include "obs/trace_sink.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

FabricConfig fabric_of(u32 gpus, FabricKind kind = FabricKind::kRing,
                       bool spill = false) {
  FabricConfig f;
  f.gpus = gpus;
  f.topology = kind;
  f.spill = spill;
  return f;
}

struct FabricRun {
  std::string jsonl;
  RunResult result;
};

FabricRun fabric_run(const std::string& abbr, double oversub,
                     const FabricConfig& fab, const EngineConfig& engine = {}) {
  const auto wl = make_benchmark(abbr);
  FabricSystem sys(SystemConfig{}, presets::cppe(), *wl, oversub, fab, engine);
  std::ostringstream os;
  JsonlSink jsonl(os);
  sys.add_sink(&jsonl);
  FabricRun out;
  out.result = sys.run();
  out.jsonl = os.str();
  return out;
}

// Acceptance criterion: a 1-GPU FabricSystem builds no coordinator and is
// cycle-for-cycle AND trace-byte-for-byte identical to UvmSystem, under
// either engine (one shard runs the sequential kernel).
TEST(FabricSystem, OneGpuMatchesUvmSystemExactly) {
  const auto wl = make_benchmark("NW");
  UvmSystem solo(SystemConfig{}, presets::cppe(), *wl, 0.5);
  std::ostringstream solo_os;
  JsonlSink solo_sink(solo_os);
  solo.recorder().add_sink(&solo_sink);
  const RunResult a = solo.run();

  const FabricRun b = fabric_run("NW", 0.5, fabric_of(1));

  EXPECT_EQ(a.cycles, b.result.cycles);
  EXPECT_EQ(a.capacity_pages, b.result.capacity_pages);
  EXPECT_EQ(a.driver.page_faults, b.result.driver.page_faults);
  EXPECT_EQ(a.driver.pages_migrated_in, b.result.driver.pages_migrated_in);
  EXPECT_EQ(a.driver.pages_evicted, b.result.driver.pages_evicted);
  EXPECT_EQ(a.h2d_pages, b.result.h2d_pages);
  EXPECT_EQ(a.d2h_pages, b.result.d2h_pages);
  EXPECT_EQ(solo_os.str(), b.jsonl);
  // No fabric state leaks into the single-GPU result.
  EXPECT_TRUE(b.result.devices.empty());
  EXPECT_TRUE(b.result.links.empty());
  EXPECT_EQ(b.result.driver.remote_accesses, 0u);
  EXPECT_EQ(b.result.driver.peer_fetches, 0u);
  // And no device stamps in the trace (additive-schema discipline).
  EXPECT_EQ(b.jsonl.find("\"dev\":"), std::string::npos);

  EngineConfig sharded;
  sharded.kind = EngineKind::kSharded;
  const FabricRun c = fabric_run("NW", 0.5, fabric_of(1), sharded);
  EXPECT_EQ(b.result.cycles, c.result.cycles);
  EXPECT_EQ(b.result.driver.page_faults, c.result.driver.page_faults);
  EXPECT_EQ(b.result.driver.pages_evicted, c.result.driver.pages_evicted);
  EXPECT_FALSE(c.result.engine_stats.sharded);
  EXPECT_EQ(b.jsonl, c.jsonl);
}

// Acceptance criterion: determinism at 2 AND 4 GPUs — identical reruns give
// byte-identical device-stamped traces and identical counters.
TEST(FabricSystem, TwoGpuRunsAreDeterministic) {
  const FabricRun a = fabric_run("NW", 0.5, fabric_of(2));
  const FabricRun b = fabric_run("NW", 0.5, fabric_of(2));
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.driver.page_faults, b.result.driver.page_faults);
  EXPECT_EQ(a.result.driver.remote_accesses, b.result.driver.remote_accesses);
  EXPECT_EQ(a.result.driver.peer_fetches, b.result.driver.peer_fetches);
  EXPECT_TRUE(a.result.completed);
  EXPECT_NE(a.jsonl.find("\"dev\":"), std::string::npos);
  ASSERT_EQ(a.result.devices.size(), 2u);
}

TEST(FabricSystem, FourGpuRunsAreDeterministic) {
  const FabricRun a = fabric_run("NW", 0.5, fabric_of(4, FabricKind::kSwitch, true));
  const FabricRun b = fabric_run("NW", 0.5, fabric_of(4, FabricKind::kSwitch, true));
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.driver.pages_spilled, b.result.driver.pages_spilled);
  EXPECT_TRUE(a.result.completed);
  ASSERT_EQ(a.result.devices.size(), 4u);
}

// The fabric actually routes: sharded NW at 50% fits must exercise the peer
// paths (remote mapping below the threshold, migration at it).
TEST(FabricSystem, PeerPathsAreExercised) {
  const FabricRun r = fabric_run("NW", 0.5, fabric_of(2));
  EXPECT_TRUE(r.result.completed);
  EXPECT_GT(r.result.driver.remote_accesses + r.result.driver.peer_fetches +
                r.result.driver.faults_forwarded,
            0u);
  // Per-link accounting reaches the result.
  ASSERT_FALSE(r.result.links.empty());
  u64 moved = 0;
  for (const LinkRunResult& l : r.result.links) moved += l.units_moved;
  EXPECT_GT(moved, 0u);
}

// The run's H2D utilisation averages every device's host link, as a fleet
// run's does, rather than reporting device 0's alone.
TEST(FabricSystem, H2dUtilisationAveragesEveryDevice) {
  const RunResult r =
      fabric_run("NW", 0.5, fabric_of(4, FabricKind::kSwitch)).result;
  ASSERT_EQ(r.devices.size(), 4u);
  const Cycle page_cycles = SystemConfig{}.pcie_page_cycles();
  double sum = 0.0;
  for (const DeviceRunResult& d : r.devices)
    sum += static_cast<double>(d.h2d_pages * page_cycles) /
           static_cast<double>(r.cycles);
  EXPECT_DOUBLE_EQ(r.h2d_utilisation, sum / 4.0);
}

// Spill-to-peer: on a thrashing preset the host write-back traffic must
// drop when eviction may spill to a peer instead (acceptance criterion).
// 75% fits still evicts thousands of pages but leaves the peers transient
// headroom to absorb spills; at 50% both devices sit at their watermark and
// spill finds no peer with headroom worth using.
TEST(FabricSystem, SpillToPeerCutsHostWriteback) {
  const FabricRun off = fabric_run("NW", 0.75, fabric_of(2, FabricKind::kRing, false));
  const FabricRun on = fabric_run("NW", 0.75, fabric_of(2, FabricKind::kRing, true));
  ASSERT_TRUE(off.result.completed);
  ASSERT_TRUE(on.result.completed);
  EXPECT_EQ(off.result.driver.pages_spilled, 0u);
  EXPECT_GT(on.result.driver.pages_spilled, 0u);
  EXPECT_LT(on.result.d2h_pages, off.result.d2h_pages);
  // The spill events carry their own trace type.
  EXPECT_NE(on.jsonl.find("\"ev\":\"page_spilled\""), std::string::npos);
  EXPECT_EQ(off.jsonl.find("\"ev\":\"page_spilled\""), std::string::npos);
}

// The pcie preset has no peer links: spill must fall back to host
// write-back and remote mapping must never happen.
TEST(FabricSystem, PcieFabricNeverRemoteMapsOrSpills) {
  const FabricRun r = fabric_run("NW", 0.5, fabric_of(2, FabricKind::kPcie, true));
  EXPECT_TRUE(r.result.completed);
  EXPECT_EQ(r.result.driver.remote_accesses, 0u);
  EXPECT_EQ(r.result.driver.pages_spilled, 0u);
}

// Placement homing: round-robin and affinity pre-assign chunk homes, and
// first-touch leaves them open until a page lands. The sharded engine's
// fabric homes every chunk at construction, first-touch as affinity.
TEST(FabricSystem, PlacementPolicyAssignsHomes) {
  const auto wl = make_benchmark("NW");
  const u64 chunks = (wl->footprint_pages() + kChunkPages - 1) / kChunkPages;
  const auto last = static_cast<ChunkId>(chunks - 1);
  EngineConfig sharded;
  sharded.kind = EngineKind::kSharded;
  sharded.threads = 1;

  FabricConfig rr = fabric_of(2);
  rr.placement = PlacementKind::kRoundRobin;
  for (const EngineConfig& engine : {EngineConfig{}, sharded}) {
    FabricSystem rr_sys(SystemConfig{}, presets::cppe(), *wl, 0.5, rr, engine);
    ASSERT_NE(rr_sys.fabric(), nullptr);
    for (ChunkId c : {ChunkId{0}, ChunkId{1}, ChunkId{2}, last})
      EXPECT_EQ(rr_sys.fabric()->home_of(c), c % 2);
  }

  FabricConfig aff = fabric_of(2);
  aff.placement = PlacementKind::kAffinity;
  FabricSystem aff_sys(SystemConfig{}, presets::cppe(), *wl, 0.5, aff);
  EXPECT_EQ(aff_sys.fabric()->home_of(0), 0u);
  EXPECT_EQ(aff_sys.fabric()->home_of(last), 1u);

  FabricConfig ft = fabric_of(2);  // first-touch: open until mapped
  FabricSystem ft_sys(SystemConfig{}, presets::cppe(), *wl, 0.5, ft);
  EXPECT_EQ(ft_sys.fabric()->home_of(0), kHostDevice);

  // Sharded, first-touch and affinity give the same homes.
  FabricSystem ft_sharded(SystemConfig{}, presets::cppe(), *wl, 0.5, ft, sharded);
  ASSERT_NE(ft_sharded.fabric(), nullptr);
  for (ChunkId c = 0; c < chunks; ++c)
    EXPECT_EQ(ft_sharded.fabric()->home_of(c), aff_sys.fabric()->home_of(c));
}

// remote_threshold == 0 forces migrate-always: no remote mappings at all.
TEST(FabricSystem, ZeroRemoteThresholdAlwaysMigrates) {
  FabricConfig f = fabric_of(2);
  f.remote_threshold = 0;
  const FabricRun r = fabric_run("NW", 0.5, f);
  EXPECT_TRUE(r.result.completed);
  EXPECT_EQ(r.result.driver.remote_accesses, 0u);
}

// The sharded fabric pins chunks to their home device, so it refuses spill.
// Device ids must fit the page directory: the coordinator's u8 owners and
// homes, whose 0xFF is the host, and the sharded fabric's u32 reader masks.
// The refusal comes before any device is built; the largest fabric builds.
TEST(FabricSystem, RefusesMoreGpusThanThePageDirectoryNames) {
  const auto wl = make_benchmark("NW");
  SystemConfig sys;
  sys.num_sms = 1;
  sys.warps_per_sm = 1;
  const u32 max = FabricCoordinator::kMaxDevices;
  EXPECT_EQ(max, 255u);
  EXPECT_THROW(FabricSystem(sys, presets::cppe(), *wl, 0.5, fabric_of(max + 1)),
               std::invalid_argument);
  EXPECT_EQ(FabricSystem(sys, presets::cppe(), *wl, 0.5, fabric_of(max)).num_gpus(), max);
}

TEST(FabricSystem, ShardedEngineRefusesMoreGpusThanItsReaderMaskHolds) {
  const auto wl = make_benchmark("NW");
  SystemConfig sys;
  sys.num_sms = 1;
  sys.warps_per_sm = 1;
  EngineConfig sharded;
  sharded.kind = EngineKind::kSharded;
  sharded.threads = 1;
  const u32 max = ShardedFabric::kMaxDevices;
  EXPECT_EQ(max, 32u);
  EXPECT_THROW(
      FabricSystem(sys, presets::cppe(), *wl, 0.5, fabric_of(max + 1), sharded),
      std::invalid_argument);
  EXPECT_EQ(
      FabricSystem(sys, presets::cppe(), *wl, 0.5, fabric_of(max), sharded).num_gpus(),
      max);
}

TEST(FabricSystem, ShardedEngineRejectsSpill) {
  const auto wl = make_benchmark("NW");
  EngineConfig sharded;
  sharded.kind = EngineKind::kSharded;
  EXPECT_THROW(FabricSystem(SystemConfig{}, presets::cppe(), *wl, 0.5,
                            fabric_of(2, FabricKind::kRing, /*spill=*/true), sharded),
               std::invalid_argument);
}

}  // namespace
}  // namespace uvmsim
