// FabricCoordinator: a fault on a page a peer is already fetching goes to
// that peer and joins its outstanding fault, one more waiter on the page's
// FaultTable entry, exactly as a second fault on one device does. A routed
// fault commits its decision: a remote access carries its round trip, and a
// peer fetch's landing has the source surrender its copy.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fabric.hpp"
#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {
namespace {

constexpr u64 kPages = 64;

FabricConfig ring2(u32 remote_threshold) {
  FabricConfig fab;
  fab.gpus = 2;  // a 2-GPU ring with first-touch placement
  fab.remote_threshold = remote_threshold;
  return fab;
}

/// Two LRU devices without prefetch on a 2-GPU ring, each with a frame for
/// every page.
struct Ring2 {
  explicit Ring2(u32 remote_threshold = FabricConfig{}.remote_threshold)
      : fab(ring2(remote_threshold)), fabric(eq, sys, fab, kPages) {
    PolicyConfig pol;
    pol.eviction_name = "lru";
    pol.prefetch_name = "none";
    for (u32 d = 0; d < fab.gpus; ++d) {
      dev.push_back(std::make_unique<UvmDriver>(
          eq, sys, pol, kPages, kPages, DriverLinks{.fabric = &fabric, .device = d}));
      dev[d]->set_policy(std::make_unique<LruPolicy>(dev[d]->chain()));
      dev[d]->set_prefetcher(std::make_unique<NoPrefetcher>());
      fabric.attach_device(d, dev[d].get());
    }
  }

  /// The idle fabric's remote round trip from device 1 to device 0's copy,
  /// starting at `at`: a hop there and back, then one line of data.
  [[nodiscard]] Cycle round_trip_0_to_1(Cycle at) const {
    FabricTopology idle(sys, fab);
    const Cycle hop = Fabric::hop_latency(sys, fab);
    return idle.reserve_path(0, 1, 1, at + 2 * idle.hops(0, 1) * hop);
  }

  EventQueue eq;
  const SystemConfig sys;
  const FabricConfig fab;
  FabricCoordinator fabric;
  std::vector<std::unique_ptr<UvmDriver>> dev;
};

TEST(FabricCoordinator, FaultOnAPageAPeerIsFetchingJoinsThatFault) {
  Ring2 r;
  const PageId p = 5;
  Cycle landed = 0;
  Cycle joined = 0;
  r.dev[0]->fault(p, [&] { landed = r.eq.now(); });
  r.dev[1]->fault(p, [&] { joined = r.eq.now(); });
  EXPECT_EQ(r.dev[0]->stats().faults_coalesced, 1u);
  EXPECT_EQ(r.dev[1]->stats().page_faults, 0u);
  EXPECT_EQ(r.dev[1]->stats().faults_forwarded, 1u);

  r.eq.run();
  ASSERT_GT(landed, 0u);
  EXPECT_TRUE(r.dev[0]->page_resident(p));
  EXPECT_FALSE(r.dev[1]->page_resident(p));
  // Device 1 reads the landed page with one remote round trip on the idle
  // 0 -> 1 link.
  EXPECT_EQ(joined, r.round_trip_0_to_1(landed));
}

// With remote threshold 0 a fault on a peer's page migrates it; when it
// lands, the source unmaps its copy and drops the emptied chunk entry.
TEST(FabricCoordinator, PeerFetchLandingSurrendersTheSourceCopy) {
  Ring2 r(/*remote_threshold=*/0);
  const PageId p = 5;
  r.dev[0]->fault(p, [] {});
  r.eq.run();
  ASSERT_TRUE(r.dev[0]->page_resident(p));

  bool woken = false;
  r.dev[1]->fault(p, [&] { woken = true; });
  r.eq.run();
  EXPECT_TRUE(woken);
  EXPECT_EQ(r.dev[1]->stats().peer_fetches, 1u);
  EXPECT_TRUE(r.dev[1]->page_resident(p));
  EXPECT_FALSE(r.dev[0]->page_resident(p));
  EXPECT_EQ(r.dev[0]->stats().pages_surrendered, 1u);
  EXPECT_EQ(r.dev[0]->chain().find(chunk_of_page(p)), nullptr);
}

// Below the threshold a fault on a peer's page is read remotely: the
// decision already holds the cycle its round trip ends.
TEST(FabricCoordinator, RemoteAccessDecisionCarriesItsRoundTrip) {
  Ring2 r(/*remote_threshold=*/4);
  const PageId p = 5;
  r.dev[0]->fault(p, [] {});
  r.eq.run();
  ASSERT_TRUE(r.dev[0]->page_resident(p));

  const FabricDecision d = r.fabric.route_fault(1, p);
  EXPECT_EQ(d.route, FabricRoute::kRemoteAccess);
  EXPECT_EQ(d.device, 0u);
  EXPECT_EQ(d.ready, r.round_trip_0_to_1(r.eq.now()));
}

}  // namespace
}  // namespace uvmsim
