// ChainSet domains, fixed at construction: split per tenant, a chunk
// resolves to its tenant's domain through the table; without a split there
// is one shared domain.
#include "uvm/chain_set.hpp"

#include <gtest/gtest.h>

#include "tenancy/tenant.hpp"

namespace uvmsim {
namespace {

TEST(ChainSet, ChunksResolveToTheirTenantsDomainThroughTheTable) {
  TenantTable three;
  three.add("C", 500);
  three.add("D", 500);
  three.add("E", 500);
  ChainSet cs(64, 0, &three, 3);
  EXPECT_EQ(cs.domains(), 3u);
  EXPECT_TRUE(cs.per_tenant());

  // Tenant E's chunks land in domain 2.
  const ChunkId e_chunk = chunk_of_page(three.info(2).base);
  EXPECT_EQ(cs.domain_of_chunk(e_chunk), 2u);
  cs.chain_of_chunk(e_chunk).insert(e_chunk);
  EXPECT_EQ(cs.chain(2).size(), 1u);
  EXPECT_EQ(cs.chain(0).size(), 0u);
  EXPECT_NE(cs.find(e_chunk), nullptr);
}

TEST(ChainSet, WithoutASplitThereIsOneSharedDomain) {
  TenantTable two;
  two.add("A", 1000);
  two.add("B", 1000);
  // The shared mode's table resolves owners, but every chunk maps to domain
  // 0 regardless of tenant, reproducing the single-tenant driver shape.
  ChainSet cs(64, 0, &two);
  EXPECT_FALSE(cs.per_tenant());
  EXPECT_EQ(cs.domain_of(1), 0u);
  const ChunkId b_chunk = chunk_of_page(two.info(1).base);
  EXPECT_EQ(cs.domain_of_chunk(b_chunk), 0u);
  cs.chain_for(1).insert(b_chunk);
  EXPECT_EQ(cs.chain(0).size(), 1u);
}

}  // namespace
}  // namespace uvmsim
