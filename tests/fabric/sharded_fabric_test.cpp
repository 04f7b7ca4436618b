// ShardedFabric: a fault on a page homed on a peer crosses to that home as a
// message; when the home is already fetching the page, the forwarded fault
// joins its outstanding fault, one more waiter on the page's FaultTable
// entry, and the reply crosses back as one remote access.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/sharded_fabric.hpp"
#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {
namespace {

TEST(ShardedFabric, ForwardedFaultJoinsTheHomesOutstandingFault) {
  const SystemConfig sys;
  PolicyConfig pol;
  pol.eviction_name = "lru";
  pol.prefetch_name = "none";
  FabricConfig fab;
  fab.gpus = 2;  // a 2-GPU ring; first-touch resolves to the affinity homes
  constexpr u64 kPages = 64;
  const Cycle hop = Fabric::hop_latency(sys, fab);
  ShardedEngine eng(fab.gpus, /*lookahead=*/hop, /*threads=*/1);
  ShardedFabric fabric(eng, sys, fab, kPages);
  std::vector<std::unique_ptr<UvmDriver>> dev;
  for (u32 d = 0; d < fab.gpus; ++d) {
    dev.push_back(std::make_unique<UvmDriver>(
        eng.queue(d), sys, pol, kPages, kPages,
        DriverLinks{.fabric = &fabric, .device = d}));
    dev[d]->set_policy(std::make_unique<LruPolicy>(dev[d]->chain()));
    dev[d]->set_prefetcher(std::make_unique<NoPrefetcher>());
    fabric.attach_device(d, dev[d].get());
  }

  const PageId p = 5;
  ASSERT_EQ(fabric.home_of(chunk_of_page(p)), 0u);
  Cycle landed = 0;
  Cycle joined = 0;
  dev[0]->fault(p, [&] { landed = eng.queue(0).now(); });
  dev[1]->fault(p, [&] { joined = eng.queue(1).now(); });
  eng.run();

  EXPECT_EQ(dev[1]->stats().page_faults, 0u);
  EXPECT_EQ(dev[1]->stats().faults_forwarded, 1u);
  EXPECT_EQ(dev[0]->stats().faults_coalesced, 1u);
  ASSERT_GT(landed, 0u);
  EXPECT_TRUE(dev[0]->page_resident(p));
  EXPECT_FALSE(dev[1]->page_resident(p));
  // The reply leaves the home when the page lands: the hops back, then one
  // line on the idle 0 -> 1 path.
  FabricTopology idle(sys, fab);
  EXPECT_EQ(joined, idle.reserve_path(0, 1, 1, landed + idle.hops(0, 1) * hop));
}

}  // namespace
}  // namespace uvmsim
