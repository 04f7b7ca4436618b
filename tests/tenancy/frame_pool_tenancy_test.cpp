// FramePool with a TenantTable attached: per-tenant admissibility, quota
// enforcement in partitioned mode, borrowing in quota mode, and the
// tenant-scoped pressure definition.
#include <gtest/gtest.h>

#include "tenancy/tenant.hpp"
#include "uvm/frame_pool.hpp"

namespace uvmsim {
namespace {

struct TwoTenants {
  TenantTable table;
  TenantId a, b;
  TwoTenants(u64 fp_a, u64 fp_b, u64 capacity) {
    a = table.add("A", fp_a);
    b = table.add("B", fp_b);
    table.compute_quotas(capacity);
  }
};

TEST(FramePoolTenancy, PartitionedCapsAdmissionAtQuota) {
  TwoTenants tt(1000, 1000, 200);  // 100 frames each
  FramePool pool(200, 0, &tt.table, TenantMode::kPartitioned);

  EXPECT_EQ(pool.admissible_frames(tt.a), 100u);
  pool.reserve(100, tt.a);
  EXPECT_EQ(pool.admissible_frames(tt.a), 0u);  // quota exhausted
  EXPECT_EQ(pool.admissible_frames(tt.b), 100u);  // B untouched
  // Global free frames still exist, but A may not take them.
  EXPECT_EQ(pool.free_frames(), 100u);
}

TEST(FramePoolTenancy, QuotaModeAdmitsBeyondQuota) {
  TwoTenants tt(1000, 1000, 200);
  FramePool pool(200, 0, &tt.table, TenantMode::kQuota);

  pool.reserve(150, tt.a);  // borrow 50 past the 100-frame quota
  EXPECT_EQ(tt.table.over_quota_by(tt.a), 50u);
  EXPECT_EQ(pool.admissible_frames(tt.a), 50u);  // everything still free
  EXPECT_EQ(pool.admissible_frames(tt.b), 50u);
}

TEST(FramePoolTenancy, ReleaseCreditsTheOwnerNotTheInitiator) {
  TwoTenants tt(1000, 1000, 200);
  FramePool pool(200, 0, &tt.table, TenantMode::kQuota);

  pool.reserve(32, tt.a);
  const FrameId f = pool.allocate();
  EXPECT_EQ(tt.table.used_frames(tt.a), 32u);
  // A's frame evicted (whoever initiated): the release credits A.
  pool.release(f, tt.a);
  EXPECT_EQ(tt.table.used_frames(tt.a), 31u);
  EXPECT_EQ(tt.table.used_frames(tt.b), 0u);
}

TEST(FramePoolTenancy, PartitionedPressureIsPerTenant) {
  TwoTenants tt(1000, 1000, 200);
  FramePool pool(200, 0, &tt.table, TenantMode::kPartitioned);

  pool.reserve(100 - kChunkPages + 1, tt.a);  // headroom < one chunk
  EXPECT_TRUE(pool.under_pressure(tt.a));
  EXPECT_FALSE(pool.under_pressure(tt.b));
  EXPECT_FALSE(pool.under_pressure());  // globally plenty free
}

TEST(FramePoolTenancy, SharedModeIsGlobalAccounting) {
  TwoTenants tt(1000, 1000, 200);
  FramePool pool(200, 0, &tt.table, TenantMode::kShared);

  pool.reserve(150, tt.a);
  // Shared mode: admissibility is the global free count for everyone.
  EXPECT_EQ(pool.admissible_frames(tt.a), 50u);
  EXPECT_EQ(pool.admissible_frames(tt.b), 50u);
  // Usage is still tracked (the stats/eviction layers read it).
  EXPECT_EQ(tt.table.used_frames(tt.a), 150u);
}

// --- Quotas below one chunk -------------------------------------------------
// compute_quotas raises starved tenants to one chunk when a donor exists;
// when capacity is too small for that, quota mode must still admit a
// whole-chunk migration (borrowing) while partitioned mode caps at the
// quota — the reason quota mode is deadlock-free at tiny capacities.

TEST(FramePoolTenancy, TinyTenantQuotaIsRaisedToOneChunk) {
  // Proportional split would give B ~1 frame; the raise pulls it to a full
  // chunk at the expense of A, keeping the sum exactly at capacity.
  TwoTenants tt(10000, 100, 160);
  EXPECT_GE(tt.table.quota_frames(tt.b), kChunkPages);
  EXPECT_EQ(tt.table.quota_frames(tt.a) + tt.table.quota_frames(tt.b), 160u);
}

TEST(FramePoolTenancy, QuotaModeAdmitsAChunkEvenWhenQuotaCannotHoldOne) {
  // Capacity 24 split two ways: 12 frames each, no donor above one chunk,
  // so both quotas stay below kChunkPages (= 16).
  TwoTenants tt(1000, 1000, 24);
  ASSERT_LT(tt.table.quota_frames(tt.a), kChunkPages);

  FramePool pool(24, 0, &tt.table, TenantMode::kQuota);
  ASSERT_GE(pool.admissible_frames(tt.a), kChunkPages);
  pool.reserve(kChunkPages, tt.a);
  EXPECT_EQ(tt.table.over_quota_by(tt.a),
            kChunkPages - tt.table.quota_frames(tt.a));
  EXPECT_TRUE(pool.under_pressure(tt.a));
}

TEST(FramePoolTenancy, PartitionedModeCapsBelowAChunkAtTinyQuotas) {
  TwoTenants tt(1000, 1000, 24);
  FramePool pool(24, 0, &tt.table, TenantMode::kPartitioned);
  // Admission can never reach one chunk: the caller must detect this (the
  // driver falls back to a retry; see UvmDriver::service_batch) rather than
  // waiting for room that cannot appear.
  EXPECT_LT(pool.admissible_frames(tt.a), kChunkPages);
  EXPECT_TRUE(pool.under_pressure(tt.a));
}

TEST(FramePoolTenancy, NoTableMeansTenancyOff) {
  FramePool pool(64, 0);
  EXPECT_EQ(pool.admissible_frames(kNoTenant), 64u);
  pool.reserve(60, kNoTenant);
  EXPECT_EQ(pool.admissible_frames(kNoTenant), 4u);
  EXPECT_TRUE(pool.under_pressure(kNoTenant));
}

}  // namespace
}  // namespace uvmsim
