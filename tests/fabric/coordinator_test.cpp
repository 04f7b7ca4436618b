// FabricCoordinator: a fault on a page a peer is already fetching goes to
// that peer and joins its outstanding fault, one more waiter on the page's
// FaultTable entry, exactly as a second fault on one device does.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fabric.hpp"
#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {
namespace {

TEST(FabricCoordinator, FaultOnAPageAPeerIsFetchingJoinsThatFault) {
  EventQueue eq;
  const SystemConfig sys;
  PolicyConfig pol;
  pol.eviction_name = "lru";
  pol.prefetch_name = "none";
  FabricConfig fab;
  fab.gpus = 2;  // a 2-GPU ring with first-touch placement
  constexpr u64 kPages = 64;
  FabricCoordinator fabric(eq, sys, fab, kPages);
  std::vector<std::unique_ptr<UvmDriver>> dev;
  for (u32 d = 0; d < fab.gpus; ++d) {
    dev.push_back(std::make_unique<UvmDriver>(eq, sys, pol, kPages, kPages));
    dev[d]->set_policy(std::make_unique<LruPolicy>(dev[d]->chain()));
    dev[d]->set_prefetcher(std::make_unique<NoPrefetcher>());
    fabric.attach_device(d, dev[d].get());
  }

  const PageId p = 5;
  Cycle landed = 0;
  Cycle joined = 0;
  dev[0]->fault(p, [&] { landed = eq.now(); });
  dev[1]->fault(p, [&] { joined = eq.now(); });
  EXPECT_EQ(dev[0]->stats().faults_coalesced, 1u);
  EXPECT_EQ(dev[1]->stats().page_faults, 0u);
  EXPECT_EQ(dev[1]->stats().faults_forwarded, 1u);

  eq.run();
  ASSERT_GT(landed, 0u);
  EXPECT_TRUE(dev[0]->page_resident(p));
  EXPECT_FALSE(dev[1]->page_resident(p));
  // Device 1 reads the landed page with one remote round trip on the idle
  // 0 -> 1 link: a hop there and back, then one line of data.
  FabricTopology idle(sys, fab);
  const Cycle hop = Fabric::hop_latency(sys, fab);
  EXPECT_EQ(joined,
            idle.reserve_path(0, 1, 1, landed + 2 * idle.hops(0, 1) * hop));
}

}  // namespace
}  // namespace uvmsim
