// Batched fault service: the fault-service backend drains up to
// `fault_batch` pending faults per driver wakeup and the scheduler merges
// their plans into one migration operation. Window 1 must reproduce the
// classic one-fault-per-wakeup driver exactly; wider windows amortise
// migration ops across the backlog.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace_sink.hpp"
#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {
namespace {

struct FaultBatchFixture : ::testing::Test {
  EventQueue eq;
  SystemConfig sys;
  PolicyConfig pol;

  std::unique_ptr<UvmDriver> make_driver(u64 footprint_pages, u64 capacity_pages,
                                         bool prefetch = false) {
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

// One narrow slot, a window of four: the four faults that pile up behind
// the first one are drained by a single driver operation.
TEST_F(FaultBatchFixture, BacklogDrainsInOneOperation) {
  pol.driver_concurrency = 1;
  pol.fault_batch = 4;
  auto d = make_driver(16 * 16, 16 * 16);
  int wakes = 0;
  for (ChunkId c = 0; c < 5; ++c)
    d->fault(first_page_of_chunk(c), [&] { ++wakes; });
  eq.run();
  EXPECT_EQ(wakes, 5);
  EXPECT_EQ(d->stats().page_faults, 5u);
  // Op 1 services fault 0 alone (the queue was empty when it arrived);
  // op 2 services the whole backlog of four.
  EXPECT_EQ(d->stats().migration_ops, 2u);
  EXPECT_EQ(d->stats().pages_migrated_in, 5u);
  for (ChunkId c = 0; c < 5; ++c)
    EXPECT_TRUE(d->page_resident(first_page_of_chunk(c)));
}

// The same five faults with the classic window take five operations.
TEST_F(FaultBatchFixture, WindowOneKeepsOneOpPerFault) {
  pol.driver_concurrency = 1;
  pol.fault_batch = 1;
  auto d = make_driver(16 * 16, 16 * 16);
  int wakes = 0;
  for (ChunkId c = 0; c < 5; ++c)
    d->fault(first_page_of_chunk(c), [&] { ++wakes; });
  eq.run();
  EXPECT_EQ(wakes, 5);
  EXPECT_EQ(d->stats().migration_ops, 5u);
  EXPECT_EQ(d->stats().pages_migrated_in, 5u);
}

// Two batched faults in the same chunk: the second lead's plan is fully
// covered by the first lead's prefetch, so the batch merges into one
// deduplicated plan and the absorbed fault's waiter rides the migration.
TEST_F(FaultBatchFixture, OverlappingPlansMergeAndDedup) {
  pol.driver_concurrency = 1;
  pol.fault_batch = 2;
  auto d = make_driver(16 * 16, 16 * 16, /*prefetch=*/true);
  int wakes = 0;
  d->fault(0, [&] { ++wakes; });   // op 1: chunk 0
  d->fault(17, [&] { ++wakes; });  // backlog; chunk 1
  d->fault(18, [&] { ++wakes; });  // backlog; absorbed by fault 17's plan
  eq.run();
  EXPECT_EQ(wakes, 3);
  EXPECT_EQ(d->stats().page_faults, 3u);
  EXPECT_EQ(d->stats().migration_ops, 2u);
  EXPECT_EQ(d->stats().pages_migrated_in, 32u);  // two whole chunks, no dupes
  EXPECT_EQ(d->stats().pages_demanded, 3u);
  EXPECT_EQ(d->stats().pages_prefetched, 29u);
}

// The batch events are emitted only on the batched path (window > 1), and
// carry the batch fan-in so traces show the amortisation directly.
TEST_F(FaultBatchFixture, BatchEventsCarryFanIn) {
  pol.driver_concurrency = 1;
  pol.fault_batch = 4;
  auto d = make_driver(16 * 16, 16 * 16);
  FlightRecorder rec(eq);
  RingSink ring(4096);
  rec.add_sink(&ring);
  d->set_recorder(&rec);
  for (ChunkId c = 0; c < 5; ++c) d->fault(first_page_of_chunk(c), [] {});
  eq.run();
  bool formed4 = false, serviced4 = false;
  for (const TraceEvent& e : ring.events()) {
    if (e.type == EventType::kFaultBatchFormed && e.b == 4) formed4 = true;
    if (e.type == EventType::kBatchServiced && e.b == 4) serviced4 = true;
  }
  EXPECT_TRUE(formed4);
  EXPECT_TRUE(serviced4);
}

// Per-fault service latency: a lone fault waits the fault latency plus its
// page's H2D transfer; coalesced waiters ride the same entry and are not
// double-counted.
TEST_F(FaultBatchFixture, FaultWaitCyclesChargedPerDistinctFault) {
  auto d = make_driver(256, 256);
  d->fault(3, [] {});
  d->fault(3, [] {});  // coalesces into the same pending entry
  eq.run();
  EXPECT_EQ(d->stats().fault_wait_cycles,
            sys.fault_latency_cycles() + sys.pcie_page_cycles());
}

// Starved admission with free frames left: the batch is trimmed from the
// back, trimmed leads go back to the backlog front, their pins are undone,
// and they are serviced by the next wakeup. Setup: two chunks resident at
// 14+15 of 31 frames, so the two-fault batch {15, 31} pins both chunks
// (its own plans) and finds only one free frame -> fault 31 is trimmed.
TEST_F(FaultBatchFixture, TrimmedLeadIsRequeuedAndServicedNext) {
  pol.driver_concurrency = 1;
  pol.fault_batch = 2;
  auto d = make_driver(16 * 16, 31);
  int wakes = 0;
  for (PageId p = 0; p < 14; ++p) {  // chunk 0: pages 0..13
    d->fault(p, [&] { ++wakes; });
    eq.run();
  }
  for (PageId p = 16; p < 31; ++p) {  // chunk 1: pages 16..30
    d->fault(p, [&] { ++wakes; });
    eq.run();
  }
  ASSERT_EQ(d->free_frames(), 2u);
  d->fault(14, [&] { ++wakes; });  // admitted alone, free -> 1, pins chunk 0
  d->fault(15, [&] { ++wakes; });  // backlog
  d->fault(31, [&] { ++wakes; });  // backlog; trimmed from the {15, 31} batch
  eq.run();
  EXPECT_EQ(wakes, 32);
  EXPECT_EQ(d->stats().page_faults, 32u);
  EXPECT_TRUE(d->page_resident(31));
  // Making room for the requeued fault 31 evicted the LRU chunk 0 once.
  EXPECT_EQ(d->stats().chunks_evicted, 1u);
  EXPECT_EQ(d->stats().pages_evicted, 16u);
  EXPECT_FALSE(d->page_resident(0));
  // Pins balance: nothing left pinned once the queue drains.
  for (const ChunkEntry& e : d->chain()) EXPECT_EQ(e.pin_count, 0u);
}

}  // namespace
}  // namespace uvmsim
