// Large-pages mode through the whole driver pipeline: end-to-end lazy
// coalescing from the fault path, splinter-then-evict under at-quota
// partitioned pressure (the make_room progress guard must survive chains
// whose every chunk sits in a coalesced frame), and churn leaving the
// FramePool/PageTable accounting exact (docs/memory.md).
#include <gtest/gtest.h>

#include <set>

#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {
namespace {

struct LargePagesDriverFixture : ::testing::Test {
  EventQueue eq;
  SystemConfig sys;
  PolicyConfig pol;

  LargePagesDriverFixture() { pol.large_pages = true; }

  std::unique_ptr<UvmDriver> make_driver(u64 footprint, u64 capacity) {
    auto d = std::make_unique<UvmDriver>(eq, sys, pol, footprint, capacity);
    d->set_policy(std::make_unique<LruPolicy>(d->chain()));
    d->set_prefetcher(std::make_unique<LocalityPrefetcher>());
    return d;
  }
};

TEST_F(LargePagesDriverFixture, FaultingAWholeRegionCoalescesIt) {
  // Capacity of exactly one 2 MB slot; the region fits with no eviction.
  auto d = make_driver(kLargePages, kLargePages);
  ASSERT_TRUE(d->large_pages_enabled());
  int wakes = 0;
  for (PageId p = 0; p < kLargePages; ++p) d->fault(p, [&] { ++wakes; });
  eq.run();

  EXPECT_EQ(wakes, static_cast<int>(kLargePages));
  // Every page was demanded, so every chunk went fully touched, the deferred
  // scans ran, and the region folded into one large mapping.
  EXPECT_EQ(d->stats().coalesces, 1u);
  EXPECT_EQ(d->stats().splinters, 0u);
  EXPECT_TRUE(d->large_frames()->coalesced(0));
  EXPECT_TRUE(d->page_table().large_mapped(0));
  EXPECT_EQ(d->page_table().mapped_pages(), kLargePages);
  EXPECT_EQ(d->free_frames(), 0u);
}

TEST_F(LargePagesDriverFixture, PartitionedAtQuotaPressureSplintersNotStalls) {
  // Tenant A (two regions) gets a quota of one 2 MB slot plus the
  // pre-eviction watermark's headroom (at *exactly* one slot the watermark
  // would claw a chunk straight back and the region could never stay fully
  // resident); tenant B exists only to make the split real and never
  // faults. A's first region coalesces at quota, then faults to its second
  // region must make room inside a chain whose every non-headroom chunk
  // sits in the coalesced frame — the non-progress guard has to splinter,
  // not spin.
  const u64 quota_a = kLargePages + 2 * kChunkPages;
  const u64 capacity = quota_a * 3 / 2;  // A's proportional share is 2/3
  TenantTable table;
  table.add("A", 2 * kLargePages);
  table.add("B", kLargePages);
  auto d = std::make_unique<UvmDriver>(
      eq, sys, pol, table.span_pages(), capacity,
      DriverLinks{.tenants = &table,
                  .mode = TenantMode::kPartitioned,
                  .scope = EvictionScope::kSelf});
  for (u64 dom = 0; dom < 2; ++dom)
    d->set_domain_policy(dom,
                         std::make_unique<LruPolicy>(d->chains().chain(dom)));
  // Demand-only: a locality prefetcher would pull region-1 chunks into the
  // one slot while region 0 is still filling, scattering its frames.
  d->set_prefetcher(std::make_unique<NoPrefetcher>());
  ASSERT_EQ(table.quota_frames(0), quota_a);

  int wakes = 0;
  for (PageId p = 0; p < kLargePages; ++p) d->fault(p, [&] { ++wakes; });
  eq.run();
  ASSERT_EQ(wakes, static_cast<int>(kLargePages));
  ASSERT_GE(d->stats().coalesces, 1u);
  ASSERT_TRUE(d->large_frames()->coalesced(0));
  EXPECT_EQ(table.used_frames(0), kLargePages);  // at quota exactly

  // A warm sibling forbids whole-frame eviction, forcing the splinter path
  // on the first victim.
  d->note_touch(0);
  for (PageId p = kLargePages; p < 2 * kLargePages; ++p)
    d->fault(p, [&] { ++wakes; });
  eq.run();

  EXPECT_EQ(wakes, static_cast<int>(2 * kLargePages));
  EXPECT_GE(d->stats().splinters, 1u);
  // Partitioned quotas held throughout the churn, and B was never touched.
  EXPECT_LE(table.used_frames(0), quota_a);
  EXPECT_EQ(table.used_frames(1), 0u);
  EXPECT_EQ(d->free_frames() + d->page_table().mapped_pages(), capacity);
}

TEST_F(LargePagesDriverFixture, ChurnLeavesAccountingExact) {
  // Two regions compete for one slot plus a small 4 KB tail: coalesce,
  // splinter/whole-evict, re-coalesce, repeatedly. After the dust settles
  // the pool's free count, the page table and the per-frame bitmap must
  // agree exactly.
  const u64 capacity = kLargePages + 4 * kChunkPages;
  auto d = make_driver(2 * kLargePages, capacity);
  int wakes = 0;
  for (PageId p = 0; p < kLargePages; ++p) d->fault(p, [&] { ++wakes; });
  eq.run();
  ASSERT_GE(d->stats().coalesces, 1u);
  for (PageId p = kLargePages; p < 2 * kLargePages; ++p)
    d->fault(p, [&] { ++wakes; });
  eq.run();
  for (PageId p = 0; p < kLargePages; ++p) d->fault(p, [&] { ++wakes; });
  eq.run();

  EXPECT_EQ(wakes, static_cast<int>(3 * kLargePages));
  // Every coalesced frame that left did so by splinter or whole eviction.
  EXPECT_GE(d->stats().splinters + d->stats().large_frames_evicted, 1u);
  EXPECT_EQ(d->free_frames() + d->page_table().mapped_pages(), capacity);
  // Each resident page holds a distinct, genuinely-allocated frame.
  std::set<FrameId> frames;
  for (PageId p = 0; p < 2 * kLargePages; ++p) {
    if (!d->page_table().resident(p)) continue;
    const FrameId f = d->page_table().frame_of(p);
    ASSERT_LT(f, capacity);
    EXPECT_FALSE(d->frame_pool().frame_free(f));
    EXPECT_TRUE(frames.insert(f).second) << "frame " << f << " double-mapped";
  }
  EXPECT_EQ(frames.size(), d->page_table().mapped_pages());
}

}  // namespace
}  // namespace uvmsim
