// Arena-mode TenantTable: dynamic attach/detach with namespace and slot
// recycling — the seam FleetSystem drives thousands of jobs through.
#include <gtest/gtest.h>

#include "tenancy/tenant.hpp"

namespace uvmsim {
namespace {

constexpr u64 kAlign = TenantTable::kNamespaceAlignPages;  // 512

TEST(TenantArena, AttachAssignsAlignedFirstFitBases) {
  TenantTable t;
  t.enable_arena(8 * kAlign);
  const TenantId a = t.attach("a", 100);   // rounds to one 512-page region
  const TenantId b = t.attach("b", 600);   // rounds to two regions
  ASSERT_NE(a, kNoTenant);
  ASSERT_NE(b, kNoTenant);
  EXPECT_EQ(t.info(a).base, 0u);
  EXPECT_EQ(t.info(b).base, kAlign);
  EXPECT_EQ(t.namespace_pages(a), kAlign);
  EXPECT_EQ(t.namespace_pages(b), 2 * kAlign);
  EXPECT_EQ(t.span_pages(), 8 * kAlign);  // arena span is fixed
  EXPECT_EQ(t.attached_count(), 2u);
}

TEST(TenantArena, NoFitReturnsNoTenant) {
  TenantTable t;
  t.enable_arena(2 * kAlign);
  EXPECT_EQ(t.attach("big", 3 * kAlign), kNoTenant);
  ASSERT_NE(t.attach("a", kAlign), kNoTenant);
  ASSERT_NE(t.attach("b", kAlign), kNoTenant);
  EXPECT_EQ(t.attach("c", 1), kNoTenant);  // arena full
  EXPECT_FALSE(t.can_fit(1));
}

TEST(TenantArena, DetachRecyclesRegionAndSlot) {
  TenantTable t;
  t.enable_arena(4 * kAlign);
  const TenantId a = t.attach("a", kAlign);
  const TenantId b = t.attach("b", kAlign);
  (void)b;
  t.detach(a);
  EXPECT_FALSE(t.active(a));
  EXPECT_EQ(t.attached_count(), 1u);
  // New tenant reuses both the lowest free slot id and the freed region.
  const TenantId c = t.attach("c", kAlign);
  EXPECT_EQ(c, a);
  EXPECT_EQ(t.info(c).base, 0u);
  EXPECT_EQ(t.info(c).name, "c");
  EXPECT_TRUE(t.active(c));
}

TEST(TenantArena, SlotStatsResetOnReattach) {
  TenantTable t;
  t.enable_arena(2 * kAlign);
  const TenantId a = t.attach("a", kAlign);
  t.stats(a).page_faults = 42;
  t.note_reserved(a, 7);
  t.note_released(a, 7);
  t.detach(a);
  const TenantId b = t.attach("b", kAlign);
  ASSERT_EQ(b, a);
  EXPECT_EQ(t.stats(b).page_faults, 0u);
  EXPECT_EQ(t.used_frames(b), 0u);
}

TEST(TenantArena, TenantOfPageTracksOccupancy) {
  TenantTable t;
  t.enable_arena(4 * kAlign);
  const TenantId a = t.attach("a", kAlign);
  const TenantId b = t.attach("b", 2 * kAlign);
  EXPECT_EQ(t.tenant_of_page(0), a);
  EXPECT_EQ(t.tenant_of_page(kAlign), b);
  EXPECT_EQ(t.tenant_of_page(3 * kAlign - 1), b);
  EXPECT_EQ(t.tenant_of_page(3 * kAlign), kNoTenant);  // free region
  t.detach(a);
  EXPECT_EQ(t.tenant_of_page(0), kNoTenant);  // freed region owns nothing
  EXPECT_EQ(t.tenant_of_page(kAlign), b);     // survivor untouched
}

TEST(TenantArena, FreeRegionsCoalesceAcrossDetaches) {
  TenantTable t;
  t.enable_arena(3 * kAlign);
  const TenantId a = t.attach("a", kAlign);
  const TenantId b = t.attach("b", kAlign);
  const TenantId c = t.attach("c", kAlign);
  EXPECT_FALSE(t.can_fit(2 * kAlign));
  // Detach a and c (non-adjacent), then b: the three single regions must
  // merge back into one 3-region span a large tenant can occupy.
  t.detach(a);
  t.detach(c);
  EXPECT_FALSE(t.can_fit(2 * kAlign));  // fragmented: two 1-region holes
  t.detach(b);
  EXPECT_TRUE(t.can_fit(3 * kAlign));
  const TenantId big = t.attach("big", 3 * kAlign);
  ASSERT_NE(big, kNoTenant);
  EXPECT_EQ(t.info(big).base, 0u);
}

TEST(TenantArena, FirstFitSkipsSmallHole) {
  TenantTable t;
  t.enable_arena(4 * kAlign);
  const TenantId a = t.attach("a", kAlign);
  const TenantId b = t.attach("b", kAlign);
  (void)b;
  t.detach(a);  // hole [0, 512) while [1024, 2048) is also free
  const TenantId big = t.attach("big", 2 * kAlign);
  ASSERT_NE(big, kNoTenant);
  EXPECT_EQ(t.info(big).base, 2 * kAlign);  // skipped the 1-region hole
  const TenantId small = t.attach("small", kAlign);
  ASSERT_NE(small, kNoTenant);
  EXPECT_EQ(t.info(small).base, 0u);  // hole reused by a fitting tenant
}

TEST(TenantArena, ChurnKeepsIdAndAddressSpaceBounded) {
  TenantTable t;
  t.enable_arena(4 * kAlign);
  TenantId last = kNoTenant;
  for (int round = 0; round < 1000; ++round) {
    const TenantId x = t.attach("job", kAlign + 17);
    ASSERT_NE(x, kNoTenant);
    EXPECT_LT(x, 2u);  // at most 2 live slots ever exist in this pattern
    if (last != kNoTenant) t.detach(last);
    last = x;
  }
  EXPECT_LE(t.size(), 2u);
  EXPECT_EQ(t.span_pages(), 4 * kAlign);
}

TEST(TenantArena, FixedTableStaysFixedN) {
  TenantTable t;  // no enable_arena: add() grows the arena in registration order
  const TenantId a = t.add("a", 100);
  const TenantId b = t.add("b", 600);
  EXPECT_EQ(t.info(a).base, 0u);
  EXPECT_EQ(t.info(b).base, kAlign);
  EXPECT_TRUE(t.active(a));
  EXPECT_TRUE(t.active(b));
  EXPECT_EQ(t.span_pages(), 3 * kAlign);  // 1 + 2 aligned regions
  EXPECT_EQ(t.tenant_of_page(kAlign - 1), a);  // gap belongs to predecessor
  EXPECT_EQ(t.attached_count(), 2u);
}

}  // namespace
}  // namespace uvmsim
