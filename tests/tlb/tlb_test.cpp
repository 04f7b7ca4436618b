#include "tlb/tlb.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(Tlb, MissThenFillThenHit) {
  Tlb tlb(8, 0, 1);
  EXPECT_FALSE(tlb.lookup(0, 5).hit);
  tlb.fill(5);
  EXPECT_TRUE(tlb.lookup(10, 5).hit);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LatencyIsCharged) {
  Tlb tlb(8, 0, 10);
  const auto r = tlb.lookup(100, 1);
  EXPECT_EQ(r.ready_at, 110u);  // starts at 100, 10-cycle access
}

TEST(Tlb, SinglePortSerialises) {
  Tlb tlb(8, 0, 1, /*ports=*/1);
  const auto a = tlb.lookup(0, 1);
  const auto b = tlb.lookup(0, 2);  // same cycle: must queue behind a
  EXPECT_GT(b.ready_at, a.ready_at);
}

TEST(Tlb, TwoPortsServeTwoPerCycle) {
  Tlb tlb(8, 0, 10, /*ports=*/2);
  const auto a = tlb.lookup(0, 1);
  const auto b = tlb.lookup(0, 2);
  const auto c = tlb.lookup(0, 3);
  EXPECT_EQ(a.ready_at, b.ready_at);  // parallel ports
  EXPECT_GT(c.ready_at, b.ready_at);  // third lookup queues
}

TEST(Tlb, InvalidateRemovesTranslation) {
  Tlb tlb(8, 0, 1);
  tlb.fill(9);
  EXPECT_TRUE(tlb.invalidate(9));
  EXPECT_FALSE(tlb.lookup(0, 9).hit);
  EXPECT_FALSE(tlb.invalidate(9));
}

TEST(Tlb, CapacityEviction) {
  Tlb tlb(4, 0, 1);  // fully associative, 4 entries
  for (PageId p = 0; p < 5; ++p) tlb.fill(p);
  u32 hits = 0;
  for (PageId p = 0; p < 5; ++p)
    if (tlb.lookup(100, p).hit) ++hits;
  EXPECT_EQ(hits, 4u);  // exactly one got evicted
}

TEST(Tlb, HitRate) {
  Tlb tlb(8, 0, 1);
  tlb.fill(1);
  tlb.lookup(0, 1);
  tlb.lookup(0, 2);
  EXPECT_DOUBLE_EQ(tlb.hit_rate(), 0.5);
}

// --- 2 MB-entry sub-array (large-pages mode; docs/memory.md) ---------------

TEST(Tlb, LargeSubArrayOffByDefault) {
  Tlb tlb(8, 0, 1);
  EXPECT_FALSE(tlb.large_enabled());
  tlb.fill_large(0);                      // silently ignored when off
  EXPECT_FALSE(tlb.invalidate_large(0));
  EXPECT_FALSE(tlb.lookup(0, 3).hit);
  EXPECT_EQ(tlb.large_hits(), 0u);
}

TEST(Tlb, OneLargeEntryCoversWholeRegion) {
  Tlb tlb(8, 0, 1);
  tlb.configure_large(4);
  tlb.fill_large(large_of_page(0));
  // Every page of region 0 hits on the single large entry...
  const auto a = tlb.lookup(0, 0);
  const auto b = tlb.lookup(10, kLargePages - 1);
  EXPECT_TRUE(a.hit && a.large);
  EXPECT_TRUE(b.hit && b.large);
  // ...and the first page of region 1 does not.
  EXPECT_FALSE(tlb.lookup(20, kLargePages).hit);
  EXPECT_EQ(tlb.large_hits(), 2u);
  EXPECT_EQ(tlb.hits(), 2u);  // large hits count as hits in the totals
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LargeHitShortCircuitsPerPageArray) {
  Tlb tlb(2, 0, 1);  // tiny per-page array
  tlb.configure_large(4);
  tlb.fill_large(0);
  // Probe many distinct pages of region 0: all large hits, and none of them
  // installs or disturbs per-page entries (the small array stays warm).
  tlb.fill(5 * kLargePages);
  tlb.fill(5 * kLargePages + 1);
  for (PageId p = 0; p < 64; ++p) EXPECT_TRUE(tlb.lookup(p, p).large);
  EXPECT_TRUE(tlb.lookup(100, 5 * kLargePages).hit);
  EXPECT_TRUE(tlb.lookup(100, 5 * kLargePages + 1).hit);
}

TEST(Tlb, InvalidateLargeDropsRegionButNotSmallEntries) {
  Tlb tlb(8, 0, 1);
  tlb.configure_large(4);
  tlb.fill_large(0);
  tlb.fill(3);  // a stale-but-correct small entry for the same region
  EXPECT_TRUE(tlb.invalidate_large(0));
  EXPECT_FALSE(tlb.invalidate_large(0));
  // The 2 MB translation is gone; the per-page one survives the shootdown
  // (a pure splinter leaves frames in place, so small entries stay valid).
  const auto r = tlb.lookup(0, 3);
  EXPECT_TRUE(r.hit);
  EXPECT_FALSE(r.large);
  EXPECT_FALSE(tlb.lookup(10, 4).hit);
}

TEST(Tlb, LargeSubArrayHasItsOwnCapacity) {
  Tlb tlb(8, 0, 1);
  tlb.configure_large(2);  // 2 large entries only
  for (LargeId l = 0; l < 3; ++l) tlb.fill_large(l);
  u32 hits = 0;
  for (LargeId l = 0; l < 3; ++l)
    if (tlb.lookup(100, first_page_of_large(l)).hit) ++hits;
  EXPECT_EQ(hits, 2u);  // one region fell out of the sub-array
}

}  // namespace
}  // namespace uvmsim
