// TenantTable: namespace carving, page/chunk ownership, quota computation
// and live usage accounting — plus the fairness helpers the harness applies
// after solo baselines.
#include <gtest/gtest.h>

#include "tenancy/fairness.hpp"
#include "tenancy/tenant.hpp"

namespace uvmsim {
namespace {

TEST(TenantTable, NamespacesAreDisjointAndAligned) {
  TenantTable t;
  const TenantId a = t.add("A", 100);    // spans [0, 100), aligned to 512
  const TenantId b = t.add("B", 513);    // needs two alignment units
  const TenantId c = t.add("C", 512);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.info(a).base, 0u);
  EXPECT_EQ(t.info(b).base, 512u);
  EXPECT_EQ(t.info(c).base, 512u + 1024u);
  EXPECT_EQ(t.span_pages(), 512u + 1024u + 512u);
  EXPECT_EQ(t.info(a).base % TenantTable::kNamespaceAlignPages, 0u);
  EXPECT_EQ(t.info(b).base % TenantTable::kNamespaceAlignPages, 0u);
  EXPECT_EQ(t.info(c).base % TenantTable::kNamespaceAlignPages, 0u);
}

TEST(TenantTable, PageAndChunkOwnership) {
  TenantTable t;
  const TenantId a = t.add("A", 100);
  const TenantId b = t.add("B", 600);
  EXPECT_EQ(t.tenant_of_page(0), a);
  EXPECT_EQ(t.tenant_of_page(99), a);
  // The alignment gap [100, 512) resolves to the preceding tenant (ownership
  // is constant within the 512-page unit) but is not *usable* namespace.
  EXPECT_EQ(t.tenant_of_page(511), a);
  EXPECT_FALSE(t.owns_page(a, 511));
  EXPECT_TRUE(t.owns_page(a, 99));
  EXPECT_EQ(t.tenant_of_page(512), b);
  EXPECT_EQ(t.tenant_of_page(512 + 599), b);
  // Past every namespace: nobody.
  EXPECT_EQ(t.tenant_of_page(t.span_pages()), kNoTenant);
  // Chunks inherit the owner of their first page; bases are chunk-aligned so
  // a chunk never straddles tenants.
  EXPECT_EQ(t.tenant_of_chunk(chunk_of_page(0)), a);
  EXPECT_EQ(t.tenant_of_chunk(chunk_of_page(512)), b);
}

TEST(TenantTable, QuotasAreProportionalAndSumToCapacity) {
  TenantTable t;
  const TenantId a = t.add("A", 3000);
  const TenantId b = t.add("B", 1000);
  t.compute_quotas(1000);
  EXPECT_EQ(t.quota_frames(a) + t.quota_frames(b), 1000u);
  EXPECT_EQ(t.quota_frames(a), 750u);
  EXPECT_EQ(t.quota_frames(b), 250u);
}

TEST(TenantTable, QuotaFloorGuaranteesOneChunk) {
  TenantTable t;
  const TenantId big = t.add("BIG", 100000);
  const TenantId tiny = t.add("TINY", 1);
  t.compute_quotas(256);
  // Proportional share for TINY would round to ~0; the floor raises it to a
  // whole chunk at the expense of the largest quota, preserving the sum.
  EXPECT_GE(t.quota_frames(tiny), kChunkPages);
  EXPECT_EQ(t.quota_frames(big) + t.quota_frames(tiny), 256u);
}

TEST(TenantTable, UsageAccountingAndHeadroom) {
  TenantTable t;
  const TenantId a = t.add("A", 1000);
  t.compute_quotas(100);
  EXPECT_EQ(t.quota_frames(a), 100u);
  EXPECT_EQ(t.quota_headroom(a), 100u);
  t.note_reserved(a, 60);
  EXPECT_EQ(t.used_frames(a), 60u);
  EXPECT_EQ(t.quota_headroom(a), 40u);
  EXPECT_EQ(t.over_quota_by(a), 0u);
  t.note_reserved(a, 60);  // borrowing past quota (quota mode)
  EXPECT_EQ(t.quota_headroom(a), 0u);
  EXPECT_EQ(t.over_quota_by(a), 20u);
  t.note_released(a, 120);
  EXPECT_EQ(t.used_frames(a), 0u);
  // kNoTenant is ignored (single-tenant call sites pass it unconditionally).
  t.note_reserved(kNoTenant, 5);
  t.note_released(kNoTenant, 5);
  EXPECT_EQ(t.used_frames(a), 0u);
}

TEST(TenantMode, ParseAndToStringRoundTrip) {
  for (const TenantMode m : {TenantMode::kShared, TenantMode::kPartitioned,
                             TenantMode::kQuota})
    EXPECT_EQ(kTenantModeNames.value(kTenantModeNames.name(m)), m);
  EXPECT_EQ(kTenantModeNames.value("bogus"), std::nullopt);
  for (const EvictionScope s : {EvictionScope::kGlobal, EvictionScope::kSelf})
    EXPECT_EQ(kEvictionScopeNames.value(kEvictionScopeNames.name(s)), s);
  EXPECT_EQ(kEvictionScopeNames.value("bogus"), std::nullopt);
}

TEST(Fairness, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0}), 0.0);
  // Maximally unfair n=2 (one starved): J -> 1/2.
  EXPECT_NEAR(jain_index({1.0, 1e-9}), 0.5, 1e-6);
  const double j = jain_index({2.0, 1.0});
  EXPECT_GT(j, 0.5);
  EXPECT_LT(j, 1.0);
}

TEST(Fairness, ApplySoloBaselines) {
  RunResult r;
  r.tenants.resize(2);
  r.tenants[0].finish_cycle = 200;
  r.tenants[1].finish_cycle = 300;
  apply_solo_baselines(r, {100, 300});
  EXPECT_DOUBLE_EQ(r.tenants[0].slowdown_vs_solo, 2.0);
  EXPECT_DOUBLE_EQ(r.tenants[1].slowdown_vs_solo, 1.0);
  // Rates are 0.5 and 1.0 -> J = 2.25/2.5 = 0.9.
  EXPECT_NEAR(r.jain_fairness, 0.9, 1e-12);

  // Missing/zero solo entries are skipped, not divided by.
  RunResult q;
  q.tenants.resize(2);
  q.tenants[0].finish_cycle = 200;
  q.tenants[1].finish_cycle = 300;
  apply_solo_baselines(q, {0});
  EXPECT_DOUBLE_EQ(q.tenants[0].slowdown_vs_solo, 0.0);
  EXPECT_DOUBLE_EQ(q.tenants[1].slowdown_vs_solo, 0.0);
  EXPECT_DOUBLE_EQ(q.jain_fairness, 0.0);
}

}  // namespace
}  // namespace uvmsim
