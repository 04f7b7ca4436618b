// LargeFrameManager: Mosaic-style lazy coalescing and splintering of 2 MB
// regions (docs/memory.md). These tests pin the candidacy walk (every way a
// region can fail to qualify), the promote/demote metadata flips, the
// shootdown fan-out, and the deferred deduplicated scan scheduling.
#include "uvm/large_frames.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "sim/event_queue.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"

namespace uvmsim {
namespace {

class LargeFramesTest : public ::testing::Test {
 protected:
  LargeFramesTest() { pt_.reserve(4 * kLargePages); }

  /// Make region `l` a perfect coalesce candidate: all 512 pages mapped
  /// contiguously from `base`, all 32 chunks fully resident + demand-touched.
  void populate(LargeId l, FrameId base) {
    const PageId p0 = first_page_of_large(l);
    for (u32 i = 0; i < kLargePages; ++i) pt_.map(p0 + i, base + i);
    const ChunkId c0 = first_chunk_of_large(l);
    for (u32 k = 0; k < kLargeChunks; ++k) {
      ChunkEntry& e = chains_.chain_of_chunk(c0 + k).insert(c0 + k);
      e.resident = TouchBits::all();
      e.touched = TouchBits::all();
    }
  }

  EventQueue eq_;
  SystemConfig sys_;
  PageTable pt_;
  ChainSet chains_{64, 4 * kLargeChunks};
  DriverStats stats_;
  ShootdownList shootdowns_;
  LargeFrameManager lfm_{eq_, sys_, pt_, chains_, shootdowns_, stats_};
};

TEST_F(LargeFramesTest, CoalescesQualifyingRegion) {
  populate(0, 0);
  EXPECT_FALSE(lfm_.coalesced(0));

  EXPECT_TRUE(lfm_.try_coalesce(0));

  EXPECT_TRUE(lfm_.coalesced(0));
  EXPECT_TRUE(pt_.large_mapped(0));
  EXPECT_EQ(stats_.coalesces, 1u);
  // Promotion is a pure metadata flip: every per-page translation survives.
  for (u32 i = 0; i < kLargePages; ++i)
    EXPECT_EQ(pt_.frame_of(first_page_of_large(0) + i), FrameId{i});
}

TEST_F(LargeFramesTest, RejectsMisalignedFrameBase) {
  // Contiguous run, but starting at frame 16: not a 512-aligned slot.
  populate(0, kChunkPages);
  EXPECT_FALSE(lfm_.try_coalesce(0));
  EXPECT_EQ(stats_.coalesces, 0u);
}

TEST_F(LargeFramesTest, RejectsNonContiguousFrames) {
  populate(0, 0);
  // One page scattered by a fallback allocation breaks the run.
  pt_.unmap(7);
  pt_.map(7, 4 * kLargePages + 3);
  EXPECT_FALSE(lfm_.try_coalesce(0));
}

TEST_F(LargeFramesTest, RejectsPartiallyTouchedRegion) {
  populate(0, 0);
  ChunkEntry* e = chains_.find(first_chunk_of_large(0) + 5);
  e->touched = TouchBits::none();
  EXPECT_FALSE(lfm_.try_coalesce(0));

  // Once the last pages are demand-touched, the same region qualifies.
  e->touched = TouchBits::all();
  EXPECT_TRUE(lfm_.try_coalesce(0));
}

TEST_F(LargeFramesTest, RejectsPinnedAndSpilledChunks) {
  populate(0, 0);
  ChunkEntry* e = chains_.find(first_chunk_of_large(0));
  e->pin_count = 1;  // in-flight DMA holds the chunk
  EXPECT_FALSE(lfm_.try_coalesce(0));
  e->pin_count = 0;

  e->spilled = true;  // spill-adopted chunks live on a peer's frames
  EXPECT_FALSE(lfm_.try_coalesce(0));
  e->spilled = false;

  EXPECT_TRUE(lfm_.try_coalesce(0));
}

TEST_F(LargeFramesTest, RejectsAlreadyCoalescedRegion) {
  populate(0, 0);
  EXPECT_TRUE(lfm_.try_coalesce(0));
  EXPECT_FALSE(lfm_.try_coalesce(0));
  EXPECT_EQ(stats_.coalesces, 1u);
}

TEST_F(LargeFramesTest, RejectsRegionWithNonResidentChunk) {
  populate(0, 0);
  // A chunk the driver has never migrated (no chain entry at all).
  populate(1, kLargePages);
  ChunkEntry* e = chains_.find(first_chunk_of_large(1) + 9);
  e->resident = TouchBits::none();
  EXPECT_FALSE(lfm_.try_coalesce(1));
  // Region 0 is unaffected by its neighbour's state.
  EXPECT_TRUE(lfm_.try_coalesce(0));
}

TEST_F(LargeFramesTest, SplinterRestoresPerPageStateAndFiresShootdown) {
  populate(0, 0);
  std::vector<LargeId> shot;
  shootdowns_.add([](PageId, FrameId) {},
                  [&shot](LargeId l) { shot.push_back(l); });
  ASSERT_TRUE(lfm_.try_coalesce(0));
  EXPECT_TRUE(shot.empty());  // promotion never invalidates anything

  lfm_.splinter(0, SplinterReason::kEvictionPressure);

  EXPECT_FALSE(lfm_.coalesced(0));
  EXPECT_FALSE(pt_.large_mapped(0));
  EXPECT_EQ(stats_.splinters, 1u);
  EXPECT_EQ(shot, std::vector<LargeId>{0});
  // Frames stay put: per-page translations are valid again as small PTEs.
  for (u32 i = 0; i < kLargePages; ++i)
    EXPECT_EQ(pt_.frame_of(first_page_of_large(0) + i), FrameId{i});

  // The splintered region may re-qualify later (lazy re-coalescing).
  EXPECT_TRUE(lfm_.try_coalesce(0));
  EXPECT_EQ(stats_.coalesces, 2u);
}

TEST_F(LargeFramesTest, ShootdownLargeFansOutWithoutDemoting) {
  populate(0, 0);
  int fired = 0;
  const auto page = [](PageId, FrameId) {};
  shootdowns_.add(page, [&fired](LargeId) { ++fired; });
  shootdowns_.add(page);  // no 2 MB handler: skipped by the large fan-out
  shootdowns_.add(page, [&fired](LargeId) { ++fired; });
  ASSERT_TRUE(lfm_.try_coalesce(0));

  shootdowns_.large(0);  // whole-frame eviction path: no demote here

  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(pt_.large_mapped(0));  // the eviction engine unmaps, not us
}

TEST_F(LargeFramesTest, ScheduledScansAreDedupedAndDeferred) {
  populate(0, 0);
  lfm_.schedule_scan(0);
  lfm_.schedule_scan(0);  // duplicate while a scan is pending: no-op
  EXPECT_EQ(lfm_.pending_scans(), 1u);
  EXPECT_FALSE(lfm_.coalesced(0));  // nothing happens at schedule time

  while (eq_.step()) {
  }

  EXPECT_GE(eq_.now(), sys_.coalesce_delay_cycles());
  EXPECT_TRUE(lfm_.coalesced(0));
  EXPECT_EQ(lfm_.pending_scans(), 0u);
  EXPECT_EQ(stats_.coalesces, 1u);

  // Rescanning a now-coalesced region is allowed and simply finds no work.
  lfm_.schedule_scan(0);
  while (eq_.step()) {
  }
  EXPECT_EQ(stats_.coalesces, 1u);
}

// Tenant namespaces are 2 MB aligned (TenantTable::kNamespaceAlignPages ==
// kLargePages), so a large region's 32 chunks can never straddle tenants:
// coalescing one tenant's region never captures a neighbour's pages.
TEST_F(LargeFramesTest, TenantNamespacesNeverStraddleLargeRegions) {
  static_assert(TenantTable::kNamespaceAlignPages == kLargePages,
                "2 MB coalescing requires namespace bases on large-region "
                "boundaries");
  TenantTable table;
  table.add("A", 700);   // odd footprint: padded up to 1024
  table.add("B", 512);
  table.add("C", 100);
  for (LargeId l = 0; l * kLargePages < table.span_pages(); ++l) {
    const TenantId owner = table.tenant_of_chunk(first_chunk_of_large(l));
    for (u32 k = 0; k < kLargeChunks; ++k)
      EXPECT_EQ(table.tenant_of_chunk(first_chunk_of_large(l) + k), owner)
          << "region " << l << " chunk " << k;
  }
}

}  // namespace
}  // namespace uvmsim
