// UvmDriver: full fault lifecycle, coalescing, eviction accounting, frame
// conservation, prefetch gating, and TLB shootdown.
#include "uvm/driver.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "obs/trace_sink.hpp"
#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {
namespace {

struct DriverFixture : ::testing::Test {
  EventQueue eq;
  SystemConfig sys;
  PolicyConfig pol;

  std::unique_ptr<UvmDriver> make_driver(u64 footprint_pages, u64 capacity_pages,
                                         bool prefetch = true) {
    pol.eviction_name = "lru";
    pol.prefetch_name = prefetch ? "locality" : "none";
    pol.pre_evict_watermark_chunks = 0;  // exact demand-eviction accounting
    auto d = std::make_unique<UvmDriver>(eq, sys, pol, footprint_pages, capacity_pages);
    d->set_policy(std::make_unique<LruPolicy>(d->chain()));
    if (prefetch)
      d->set_prefetcher(std::make_unique<LocalityPrefetcher>());
    else
      d->set_prefetcher(std::make_unique<NoPrefetcher>());
    return d;
  }
};

TEST_F(DriverFixture, FaultMigratesWholeChunk) {
  auto d = make_driver(256, 128);
  bool woke = false;
  d->fault(5, [&] { woke = true; });
  eq.run();
  EXPECT_TRUE(woke);
  for (PageId p = 0; p < 16; ++p) EXPECT_TRUE(d->page_resident(p));
  EXPECT_FALSE(d->page_resident(16));
  EXPECT_EQ(d->stats().page_faults, 1u);
  EXPECT_EQ(d->stats().pages_migrated_in, 16u);
  EXPECT_EQ(d->stats().pages_demanded, 1u);
  EXPECT_EQ(d->stats().pages_prefetched, 15u);
}

TEST_F(DriverFixture, FaultServiceTimeIsCharged) {
  auto d = make_driver(256, 128);
  Cycle woke_at = 0;
  d->fault(0, [&] { woke_at = eq.now(); });
  eq.run();
  // 20 us service + 16 pages over the H2D link.
  const Cycle expected = sys.fault_latency_cycles() + 16 * sys.pcie_page_cycles();
  EXPECT_EQ(woke_at, expected);
}

TEST_F(DriverFixture, FaultsToInflightPageCoalesce) {
  auto d = make_driver(256, 128);
  int wakes = 0;
  d->fault(3, [&] { ++wakes; });
  d->fault(3, [&] { ++wakes; });
  d->fault(7, [&] { ++wakes; });  // same chunk, already planned -> coalesces
  eq.run();
  EXPECT_EQ(wakes, 3);
  EXPECT_EQ(d->stats().page_faults, 1u);
  EXPECT_EQ(d->stats().faults_coalesced, 2u);
  EXPECT_EQ(d->stats().pages_migrated_in, 16u);
  // Both faulted pages count as demanded.
  EXPECT_EQ(d->stats().pages_demanded, 2u);
}

TEST_F(DriverFixture, FaultOnResidentPageWakesImmediately) {
  auto d = make_driver(256, 128);
  d->fault(0, [] {});
  eq.run();
  bool woke = false;
  d->fault(0, [&] { woke = true; });
  EXPECT_TRUE(woke);  // synchronous wake, no new fault
  EXPECT_EQ(d->stats().page_faults, 1u);
}

TEST_F(DriverFixture, EvictsLruChunkWhenFull) {
  auto d = make_driver(16 * 16, 4 * 16);  // 16 chunks footprint, 4 chunks capacity
  for (ChunkId c = 0; c < 4; ++c) {
    d->fault(first_page_of_chunk(c), [] {});
    eq.run();
  }
  EXPECT_EQ(d->free_frames(), 0u);
  EXPECT_TRUE(d->memory_full());
  d->fault(first_page_of_chunk(4), [] {});
  eq.run();
  EXPECT_EQ(d->stats().chunks_evicted, 1u);
  EXPECT_EQ(d->stats().pages_evicted, 16u);
  EXPECT_FALSE(d->page_resident(0));          // chunk 0 was the LRU victim
  EXPECT_TRUE(d->page_resident(4 * 16));
}

TEST_F(DriverFixture, FrameAccountingConserved) {
  auto d = make_driver(32 * 16, 8 * 16);
  for (ChunkId c = 0; c < 20; ++c) {
    d->fault(first_page_of_chunk(c) + (c % 16), [] {});
    eq.run();
  }
  const auto& st = d->stats();
  EXPECT_EQ(st.pages_migrated_in - st.pages_evicted, d->page_table().mapped_pages());
  EXPECT_LE(d->page_table().mapped_pages(), d->capacity_pages());
  EXPECT_EQ(d->free_frames() + d->page_table().mapped_pages(), d->capacity_pages());
}

// One slot: fault 0's chunk is in flight while fault 32 waits in the
// backend queue. A fault on either page coalesces into its one table
// entry; the trace tells the stages apart (0 = raised, 1 = in flight).
TEST_F(DriverFixture, PendingAndInFlightFaultsCoalesceWithTheirStage) {
  pol.driver_concurrency = 1;
  auto d = make_driver(256, 128);
  FlightRecorder rec(eq);
  RingSink ring(256);
  rec.add_sink(&ring);
  d->set_recorder(&rec);
  int wakes = 0;
  const auto wake = [&] { ++wakes; };
  d->fault(0, wake);
  d->fault(32, wake);
  d->fault(1, wake);   // prefetched by fault 0's plan: in flight
  d->fault(32, wake);  // raised, not yet planned
  EXPECT_EQ(d->stats().page_faults, 2u);
  EXPECT_EQ(d->stats().faults_coalesced, 2u);
  std::vector<std::pair<u64, u64>> coalesced;  // (page, stage)
  for (const TraceEvent& e : ring.events())
    if (e.type == EventType::kFaultCoalesced) coalesced.emplace_back(e.a, e.b);
  EXPECT_EQ(coalesced, (std::vector<std::pair<u64, u64>>{{1, 1}, {32, 0}}));
  eq.run();
  EXPECT_EQ(wakes, 4);
  EXPECT_EQ(d->stats().pages_demanded, 3u);  // pages 0, 1 and 32
}

// migration_in_flight (the fabric's route_fault/host_fetchable oracle)
// covers every planned page, prefetch-only ones included, but not a fault
// still waiting in the backend queue.
TEST_F(DriverFixture, MigrationInFlightCoversPlannedPagesOnly) {
  pol.driver_concurrency = 1;
  auto d = make_driver(256, 128);
  d->fault(0, [] {});
  d->fault(32, [] {});
  EXPECT_TRUE(d->migration_in_flight(0));
  EXPECT_TRUE(d->migration_in_flight(5));  // planned only as a prefetch
  EXPECT_TRUE(d->is_resident(5));          // so no second plan pulls it
  EXPECT_FALSE(d->migration_in_flight(32));
  EXPECT_FALSE(d->is_resident(32));
  eq.run();
  EXPECT_FALSE(d->migration_in_flight(5));
  EXPECT_FALSE(d->migration_in_flight(32));
  EXPECT_TRUE(d->page_resident(32));
}

TEST_F(DriverFixture, CapacityIsNeverExceededMidRun) {
  auto d = make_driver(64 * 16, 6 * 16);
  for (ChunkId c = 0; c < 30; ++c) d->fault(first_page_of_chunk(c), [] {});
  while (eq.step()) {
    ASSERT_LE(d->page_table().mapped_pages(), d->capacity_pages());
  }
}

TEST_F(DriverFixture, PrefetchGatingWhenMemoryFull) {
  pol.prefetch_when_full = false;
  auto d = make_driver(16 * 16, 4 * 16);
  for (ChunkId c = 0; c < 4; ++c) {
    d->fault(first_page_of_chunk(c), [] {});
    eq.run();
  }
  ASSERT_TRUE(d->memory_full());
  d->fault(first_page_of_chunk(5), [] {});
  eq.run();
  // Only the faulted page moved: no prefetch once memory is exhausted.
  EXPECT_EQ(d->stats().pages_migrated_in, 4 * 16 + 1);
}

TEST_F(DriverFixture, ShootdownFiresPerEvictedPage) {
  auto d = make_driver(16 * 16, 4 * 16);
  u64 shootdowns = 0;
  d->add_shootdown_handler([&](PageId, FrameId) { ++shootdowns; });
  for (ChunkId c = 0; c < 5; ++c) {
    d->fault(first_page_of_chunk(c), [] {});
    eq.run();
  }
  EXPECT_EQ(shootdowns, 16u);  // one chunk evicted
}

TEST_F(DriverFixture, NoteTouchUpdatesChainMetadata) {
  auto d = make_driver(256, 128);
  d->fault(0, [] {});
  eq.run();
  d->note_touch(3);
  const ChunkEntry& e = d->chain().entry(0);
  EXPECT_TRUE(e.touched.test(3));
  EXPECT_TRUE(e.touched.test(0));  // the original demand fault
  EXPECT_EQ(e.untouch_level(), 14u);
}

TEST_F(DriverFixture, LruReordersChainOnTouch) {
  auto d = make_driver(256, 128);
  d->fault(first_page_of_chunk(0), [] {});
  eq.run();
  d->fault(first_page_of_chunk(1), [] {});
  eq.run();
  EXPECT_EQ(d->chain().begin()->id, 0u);  // 0 is LRU
  d->note_touch(0);                       // touch chunk 0 -> MRU
  EXPECT_EQ(d->chain().begin()->id, 1u);
}

TEST_F(DriverFixture, DemandOnlyMigratesSinglePages) {
  auto d = make_driver(256, 128, /*prefetch=*/false);
  d->fault(5, [] {});
  eq.run();
  EXPECT_EQ(d->stats().pages_migrated_in, 1u);
  EXPECT_TRUE(d->page_resident(5));
  EXPECT_FALSE(d->page_resident(4));
}

TEST_F(DriverFixture, ResidencyViewIncludesInflight) {
  auto d = make_driver(256, 128);
  d->fault(0, [] {});
  // Before the migration completes, the view reports the planned pages as
  // resident so concurrent prefetch plans skip them.
  EXPECT_TRUE(d->is_resident(0));
  EXPECT_TRUE(d->is_resident(15));
  EXPECT_FALSE(d->page_resident(0));
  eq.run();
  EXPECT_TRUE(d->page_resident(0));
}

TEST_F(DriverFixture, PreEvictionKeepsWatermarkFree) {
  PolicyConfig p2;
  p2.eviction_name = "lru";
  p2.prefetch_name = "locality";
  p2.pre_evict_watermark_chunks = 2;
  auto d2 = std::make_unique<UvmDriver>(eq, sys, p2, 32 * 16, 4 * 16);
  d2->set_policy(std::make_unique<LruPolicy>(d2->chain()));
  d2->set_prefetcher(std::make_unique<LocalityPrefetcher>());
  for (ChunkId c = 0; c < 6; ++c) {
    d2->fault(first_page_of_chunk(c), [] {});
    eq.run();
  }
  // After every completed migration at least 2 chunks of frames are free,
  // and those evictions were pre-evictions, not demand evictions.
  EXPECT_GE(d2->free_frames(), 2u * kChunkPages);
  EXPECT_GT(d2->stats().pre_evictions, 0u);
  EXPECT_EQ(d2->stats().demand_evictions, 0u);
}

TEST_F(DriverFixture, DemandEvictionLengthensFaultService) {
  // watermark 0: the 5th chunk fault must evict synchronously and pay for it.
  auto d = make_driver(16 * 16, 4 * 16);
  for (ChunkId c = 0; c < 4; ++c) {
    d->fault(first_page_of_chunk(c), [] {});
    eq.run();
  }
  const Cycle before = eq.now();
  Cycle woke_at = 0;
  d->fault(first_page_of_chunk(5), [&] { woke_at = eq.now(); });
  eq.run();
  EXPECT_EQ(d->stats().demand_evictions, 1u);
  const Cycle expected = before + sys.fault_latency_cycles() +
                         sys.evict_service_cycles() + 16 * sys.pcie_page_cycles();
  EXPECT_EQ(woke_at, expected);
}

TEST_F(DriverFixture, H2DAndD2HTrafficAccounted) {
  auto d = make_driver(16 * 16, 4 * 16);
  for (ChunkId c = 0; c < 6; ++c) {
    d->fault(first_page_of_chunk(c), [] {});
    eq.run();
  }
  EXPECT_EQ(d->h2d().units_moved(), 6u * 16u);
  EXPECT_EQ(d->d2h().units_moved(), 2u * 16u);  // two chunks written back
}

}  // namespace
}  // namespace uvmsim
