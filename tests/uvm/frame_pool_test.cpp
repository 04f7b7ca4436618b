// FramePool: frame hand-out order, reserve/release accounting, and the live
// "memory full" definition that replaced the driver's old sticky
// chunks-evicted flag (ISSUE satellite: memory_full() conflated "an
// eviction ever happened" with current pressure).
#include "uvm/frame_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace uvmsim {
namespace {

TEST(FramePool, HandsOutFreshFramesInAscendingOrder) {
  FramePool pool(64, 0);
  pool.reserve(3);
  EXPECT_EQ(pool.allocate(), 0u);
  EXPECT_EQ(pool.allocate(), 1u);
  EXPECT_EQ(pool.allocate(), 2u);
  EXPECT_EQ(pool.free_frames(), 61u);
}

TEST(FramePool, RecyclesReleasedFramesLifoBeforeFreshOnes) {
  FramePool pool(64, 0);
  pool.reserve(2);
  const FrameId a = pool.allocate();
  const FrameId b = pool.allocate();
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.free_frames(), 64u);
  pool.reserve(3);
  EXPECT_EQ(pool.allocate(), b);  // LIFO: most recently released first
  EXPECT_EQ(pool.allocate(), a);
  EXPECT_EQ(pool.allocate(), 2u);  // then the next never-used frame
}

TEST(FramePool, ReserveTracksAdmissionBeforeFramesAreBound) {
  FramePool pool(32, 0);
  pool.reserve(32);
  EXPECT_EQ(pool.free_frames(), 0u);
  // Accounting is split from binding: all 32 frames are still allocatable.
  for (u64 i = 0; i < 32; ++i) (void)pool.allocate();
}

// Before the first eviction the watermark is not yet maintained, so
// pressure keys only on whole-chunk headroom: the fill phase of an
// oversubscribed run is not "full" until free frames dip below one chunk.
TEST(FramePool, FillPhasePressureIgnoresWatermark) {
  FramePool pool(64, 16);
  EXPECT_FALSE(pool.under_pressure());
  pool.reserve(48);  // free = 16: one chunk still fits
  EXPECT_FALSE(pool.under_pressure());
  pool.reserve(1);  // free = 15: a whole-chunk migration no longer fits
  EXPECT_TRUE(pool.under_pressure());
}

// Once eviction begins, the pre-eviction headroom counts as claimed: the
// driver keeps `watermark` frames free on purpose, so they must not make
// memory look comfortable.
TEST(FramePool, AfterEvictionPressureIncludesWatermarkHeadroom) {
  FramePool pool(64, 16);
  pool.reserve(64);
  for (u64 i = 0; i < 64; ++i) (void)pool.allocate();
  EXPECT_TRUE(pool.under_pressure());
  for (FrameId f = 0; f < 16; ++f) pool.release(f);  // evict one chunk
  // free = 16 < 16 (chunk) + 16 (watermark): still under pressure.
  EXPECT_TRUE(pool.evictions_seen());
  EXPECT_TRUE(pool.under_pressure());
}

// The satellite fix itself: the old rule (`chunks_evicted > 0 || free <
// kChunkPages`) latched "full" forever after the first eviction. Pressure
// is now live — if frames free back up past chunk + watermark headroom,
// the pool stops reporting pressure even though evictions happened.
TEST(FramePool, PressureClearsWhenFramesFreeBackUp) {
  FramePool pool(64, 16);
  pool.reserve(64);
  for (u64 i = 0; i < 64; ++i) (void)pool.allocate();
  for (FrameId f = 0; f < 32; ++f) pool.release(f);  // two chunks freed
  EXPECT_TRUE(pool.evictions_seen());
  // free = 32 >= 16 + 16: a chunk fits beyond the watermark headroom.
  EXPECT_FALSE(pool.under_pressure());
  pool.reserve(1);
  EXPECT_TRUE(pool.under_pressure());  // and returns as soon as it is spent
}

// --- Large-frame (2 MB) slot binding — Mosaic's CoCoA (docs/memory.md) -----

// A 2-slot pool: frames [0, 512) are slot 0, [512, 1024) slot 1.
constexpr u64 kLargeCap = 2 * kLargePages;

FramePool large_pool(u64 capacity_pages) {
  return FramePool(capacity_pages, 0, nullptr, TenantMode::kShared,
                   /*large_frames=*/true);
}

TEST(FramePoolLarge, RegionsBindDistinctSlotsAndGetContiguousFrames) {
  FramePool pool = large_pool(kLargeCap);
  EXPECT_TRUE(pool.large_mode());
  EXPECT_EQ(pool.large_slots(), 2u);

  // Region 0 binds slot 0: every page lands on frame slot_base + offset.
  pool.reserve(3);
  EXPECT_EQ(pool.allocate_for(0), 0u);
  EXPECT_EQ(pool.allocate_for(7), 7u);
  EXPECT_EQ(pool.allocate_for(kLargePages - 1), kLargePages - 1);
  // Region 1 binds the next slot, not interleaving into slot 0.
  pool.reserve(2);
  EXPECT_EQ(pool.allocate_for(kLargePages + 0), kLargePages + 0);
  EXPECT_EQ(pool.allocate_for(kLargePages + 9), kLargePages + 9);
}

TEST(FramePoolLarge, UnboundRegionFallsBackToAnyFreeFrame) {
  FramePool pool = large_pool(kLargeCap);
  pool.reserve(3);
  EXPECT_EQ(pool.allocate_for(0), 0u);                      // region 0 -> slot 0
  EXPECT_EQ(pool.allocate_for(kLargePages), kLargePages);   // region 1 -> slot 1
  // Region 2 finds every slot bound: it takes whatever is free and stays
  // small. The binding is a preference, never a reservation.
  const FrameId f = pool.allocate_for(2 * kLargePages + 5);
  EXPECT_EQ(f, 1u);  // lowest free frame, not 2*kLargePages+5 (out of range)
  EXPECT_EQ(pool.free_frames(), kLargeCap - 3);
}

TEST(FramePoolLarge, PreferredFrameTakenMeansFallbackNotFailure) {
  FramePool pool = large_pool(kLargeCap);
  pool.reserve(3);
  EXPECT_EQ(pool.allocate_for(0), 0u);  // region 0 -> slot 0
  // A squatter (unbound region, both slots bound after region 1 arrives)
  // can sit on a bound slot's interior frame.
  EXPECT_EQ(pool.allocate_for(kLargePages + 0), kLargePages + 0);  // region 1
  const FrameId squat = pool.allocate_for(2 * kLargePages + 1);
  EXPECT_EQ(squat, 1u);  // inside slot 0
  // Region 0's page at offset 1 finds its preferred frame taken: fallback.
  pool.reserve(1);
  const FrameId f = pool.allocate_for(1);
  EXPECT_NE(f, 1u);
  EXPECT_FALSE(pool.frame_free(f));
}

TEST(FramePoolLarge, ChurnReclaimsFullyFreedBoundSlot) {
  FramePool pool = large_pool(kLargeCap);
  pool.reserve(2);
  EXPECT_EQ(pool.allocate_for(0), 0u);                     // region 0 -> slot 0
  EXPECT_EQ(pool.allocate_for(kLargePages), kLargePages);  // region 1 -> slot 1
  // Region 0 is entirely evicted: its slot's frames are all free again, but
  // the binding lingers (lazy) until a newcomer needs a slot.
  pool.release(0);
  pool.reserve(1);
  EXPECT_EQ(pool.allocate_for(2 * kLargePages + 0), 0u);  // reclaims slot 0
  // Region 0 returning now finds no slot (slot 1 is occupied): fallback.
  pool.reserve(1);
  const FrameId f = pool.allocate_for(0);
  EXPECT_NE(f, 0u);
  EXPECT_EQ(pool.free_frames(), kLargeCap - 3);
}

TEST(FramePoolLarge, AccountingStaysExactThroughChurn) {
  FramePool pool = large_pool(kLargeCap);
  // Interleave allocations from three regions (only two slots), release in
  // a mixed order, and re-allocate: the free count and the per-frame bitmap
  // must agree at every step.
  std::vector<FrameId> live;
  for (u64 round = 0; round < 4; ++round) {
    for (u64 r = 0; r < 3; ++r) {
      for (u32 i = 0; i < 8; ++i) {
        pool.reserve(1);
        live.push_back(pool.allocate_for(r * kLargePages + i + 8 * round));
      }
    }
    EXPECT_EQ(pool.free_frames(), kLargeCap - live.size());
    // Release every other live frame.
    std::vector<FrameId> kept;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (i % 2 == 0) pool.release(live[i]);
      else kept.push_back(live[i]);
    }
    live = std::move(kept);
    EXPECT_EQ(pool.free_frames(), kLargeCap - live.size());
    for (const FrameId f : live) EXPECT_FALSE(pool.frame_free(f));
  }
  // Drain: everything released, the pool is whole again.
  for (const FrameId f : live) pool.release(f);
  EXPECT_EQ(pool.free_frames(), kLargeCap);
  for (FrameId f = 0; f < kLargeCap; ++f) EXPECT_TRUE(pool.frame_free(f));
}

// The tail of a capacity that is not slot-aligned is plain 4 KB territory:
// allocations and releases there must not touch slot accounting.
TEST(FramePoolLarge, UnalignedCapacityTailStaysSmall) {
  FramePool pool = large_pool(kLargePages + 3 * kChunkPages);
  EXPECT_EQ(pool.large_slots(), 1u);
  pool.reserve(kLargePages);  // region 0 fills slot 0 completely
  for (u32 i = 0; i < kLargePages; ++i)
    EXPECT_EQ(pool.allocate_for(i), FrameId{i});
  // The next region can only land on tail frames past the last slot.
  pool.reserve(3 * kChunkPages);
  for (u32 i = 0; i < 3 * kChunkPages; ++i) {
    const FrameId f = pool.allocate_for(kLargePages + i);
    EXPECT_GE(f, kLargePages);
  }
  EXPECT_EQ(pool.free_frames(), 0u);
  // Releasing tail frames round-trips cleanly (no slot underflow).
  pool.release(kLargePages + 1);
  pool.reserve(1);
  EXPECT_EQ(pool.allocate_for(kLargePages + 1), kLargePages + 1);
}

}  // namespace
}  // namespace uvmsim
