// Pin/unpin accounting across the split driver (ISSUE satellite): a chunk
// with an in-flight migration targeting it is pinned and must never be
// selected for eviction, and every pin taken at admission must be released
// at completion — across overlapping plans, gated (prefetch_when_full)
// service, and eviction pressure.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "prefetch/tree_neighborhood.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {
namespace {

/// LRU with an audit: every victim the engine is offered is recorded and
/// checked against the pin invariant at selection time.
class AuditedLru final : public EvictionPolicy {
 public:
  using EvictionPolicy::EvictionPolicy;

  [[nodiscard]] ChunkId select_victim() override {
    const ChunkId v = lru_unpinned();
    if (v != kInvalidChunk) audit(v);
    return v;
  }
  [[nodiscard]] std::vector<ChunkId> select_victims(u64 max_victims) override {
    auto out = lru_unpinned_batch(max_victims);
    for (ChunkId v : out) audit(v);
    return out;
  }
  [[nodiscard]] bool reorder_on_touch() const override { return true; }
  [[nodiscard]] std::string name() const override { return "AuditedLRU"; }

  std::vector<ChunkId> victims;

 private:
  void audit(ChunkId v) {
    EXPECT_FALSE(chain().entry(v).pinned())
        << "policy offered pinned chunk " << v << " for eviction";
    victims.push_back(v);
  }
};

struct PinFixture : ::testing::Test {
  EventQueue eq;
  SystemConfig sys;
  PolicyConfig pol;
  AuditedLru* lru = nullptr;  // owned by the driver

  std::unique_ptr<UvmDriver> make_driver(u64 footprint_pages,
                                         u64 capacity_pages) {
    auto d = std::make_unique<UvmDriver>(eq, sys, pol, footprint_pages,
                                         capacity_pages);
    auto policy = std::make_unique<AuditedLru>(d->chain());
    lru = policy.get();
    d->set_policy(std::move(policy));
    return d;
  }
};

// Gated service (prefetch_when_full = false) fills a chunk one page at a
// time, so 15 concurrent single-page migrations all pin the same chunk.
// Eviction pressure arriving while those pins are live must fall on the
// unpinned LRU chunk, and every pin must be gone once the queue drains.
TEST_F(PinFixture, PinnedChunkSurvivesEvictionPressure) {
  pol.prefetch_name = "locality";
  pol.prefetch_when_full = false;
  pol.pre_evict_watermark_chunks = 0;
  pol.driver_concurrency = 16;
  auto d = make_driver(16 * 16, 2 * 16);
  d->set_prefetcher(std::make_unique<LocalityPrefetcher>());

  d->fault(first_page_of_chunk(0), [] {});  // whole chunk 0 (not yet full)
  eq.run();
  d->fault(first_page_of_chunk(1), [] {});  // whole chunk 1: memory now full
  eq.run();
  ASSERT_EQ(d->free_frames(), 0u);
  ASSERT_TRUE(d->memory_full());

  d->fault(32, [] {});  // gated single-page plan; evicts LRU chunk 0
  eq.run();
  ASSERT_TRUE(d->page_resident(32));
  ASSERT_EQ(d->free_frames(), 15u);

  // 15 gated faults extend chunk 2 concurrently: 15 live pins on it.
  for (PageId p = 33; p < 48; ++p) d->fault(p, [] {});
  ASSERT_EQ(d->free_frames(), 0u);
  ASSERT_EQ(d->chain().entry(2).pin_count, 15u);

  // Pressure while pinned: the victim must be chunk 1, never chunk 2.
  d->fault(first_page_of_chunk(3), [] {});
  EXPECT_FALSE(d->page_resident(first_page_of_chunk(1)));
  EXPECT_TRUE(d->chain().contains(2));

  eq.run();
  for (PageId p = 32; p < 48; ++p) EXPECT_TRUE(d->page_resident(p));
  for (ChunkId v : lru->victims) EXPECT_NE(v, 2u);
  for (const ChunkEntry& e : d->chain()) EXPECT_EQ(e.pin_count, 0u);
}

// Overlapping tree-prefetch plans under heavy oversubscription: clamped
// neighbourhood plans repeatedly extend partially-resident chunks while
// other migrations are in flight. Whatever interleaving results, pins must
// balance to zero and frame accounting must conserve capacity.
TEST_F(PinFixture, OverlappingTreePlansBalancePins) {
  pol.prefetch_name = "tree";
  pol.driver_concurrency = 8;
  auto d = make_driver(512 * 16, 32 * 16);
  d->set_prefetcher(std::make_unique<TreeNeighborhoodPrefetcher>());

  const PageId footprint = d->footprint_pages();
  PageId p = 0;
  for (int i = 0; i < 200; ++i) {
    d->fault(p, [] {});
    p = (p + 97) % footprint;  // strides across chunks and 2MB regions
    if (i % 8 == 7) eq.run();
  }
  eq.run();

  for (const ChunkEntry& e : d->chain()) EXPECT_EQ(e.pin_count, 0u);
  u64 resident = 0;
  for (const ChunkEntry& e : d->chain()) resident += e.resident.count();
  EXPECT_EQ(d->free_frames() + resident, d->capacity_pages());
  EXPECT_EQ(d->stats().pages_migrated_in - d->stats().pages_evicted, resident);
  EXPECT_GT(d->stats().chunks_evicted, 0u);  // pressure actually occurred
}

}  // namespace
}  // namespace uvmsim
