// IntervalMetricsSink: folding the event stream into per-interval rows.
#include "obs/interval_metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace uvmsim {
namespace {

TEST(UntouchHistogram, BucketBoundaries) {
  EXPECT_EQ(untouch_hist_bucket(0), 0u);
  EXPECT_EQ(untouch_hist_bucket(3), 0u);
  EXPECT_EQ(untouch_hist_bucket(4), 1u);
  EXPECT_EQ(untouch_hist_bucket(7), 1u);
  EXPECT_EQ(untouch_hist_bucket(8), 2u);
  EXPECT_EQ(untouch_hist_bucket(11), 2u);
  EXPECT_EQ(untouch_hist_bucket(12), 3u);
  EXPECT_EQ(untouch_hist_bucket(15), 3u);
  EXPECT_EQ(untouch_hist_bucket(16), 4u);
}

TEST(IntervalMetrics, AccumulatesAndClosesRows) {
  IntervalMetricsSink sink;
  sink.emit({100, EventType::kFaultRaised, 1, 0});
  sink.emit({110, EventType::kFaultCoalesced, 2, 0});
  sink.emit({120, EventType::kMigrationPlanned, 1, 16, 5000});
  sink.emit({130, EventType::kEvictionChosen, 7, /*untouch=*/9, /*pages=*/14});
  sink.emit({140, EventType::kWrongEvictionDetected, 7, 1});
  sink.emit({150, EventType::kPatternHit, 3, 8, 8});
  sink.emit({160, EventType::kShootdownIssued, 17, 4});
  sink.emit({200, EventType::kIntervalBoundary, /*interval=*/1, 64});

  sink.emit({210, EventType::kFaultRaised, 9, 0});
  sink.finish(400);

  const auto& rows = sink.rows();
  ASSERT_EQ(rows.size(), 2u);
  const IntervalRow& r0 = rows[0];
  EXPECT_EQ(r0.interval, 0u);
  EXPECT_EQ(r0.start, 0u);
  EXPECT_EQ(r0.end, 200u);
  EXPECT_EQ(r0.faults, 1u);
  EXPECT_EQ(r0.coalesced, 1u);
  EXPECT_EQ(r0.migrations, 1u);
  EXPECT_EQ(r0.pages_migrated, 16u);
  EXPECT_EQ(r0.chunks_evicted, 1u);
  EXPECT_EQ(r0.pages_evicted, 14u);
  EXPECT_EQ(r0.wrong_evictions, 1u);
  EXPECT_EQ(r0.pattern_hits, 1u);
  EXPECT_EQ(r0.shootdowns, 1u);
  EXPECT_EQ(r0.h2d_busy, 5000u);
  EXPECT_EQ(r0.untouch_hist[2], 1u);  // untouch 9 -> bucket 8-11
  EXPECT_DOUBLE_EQ(r0.h2d_occupancy(), 5000.0 / 200.0);

  EXPECT_EQ(rows[1].interval, 1u);
  EXPECT_EQ(rows[1].start, 200u);
  EXPECT_EQ(rows[1].end, 400u);
  EXPECT_EQ(rows[1].faults, 1u);
}

TEST(IntervalMetrics, FinalizeIsIdempotentAndSkipsEmptyTail) {
  IntervalMetricsSink sink;
  sink.emit({10, EventType::kFaultRaised, 1, 0});
  sink.emit({50, EventType::kIntervalBoundary, 1, 64});
  sink.finish(100);  // no events after the boundary: nothing to close
  sink.finish(100);
  EXPECT_EQ(sink.rows().size(), 1u);
}

TEST(IntervalMetrics, CsvGoldenHeaderAndRowShape) {
  IntervalMetricsSink sink;
  sink.emit({10, EventType::kFaultRaised, 1, 0});
  sink.emit({20, EventType::kIntervalBoundary, 1, 64});
  std::ostringstream os;
  sink.write_csv(os);
  EXPECT_EQ(os.str(),
            "interval,start,end,faults,coalesced,migrations,pages_migrated,"
            "chunks_evicted,pages_evicted,wrong_evictions,pre_evict_rounds,"
            "pattern_hits,pattern_misses,pattern_deletions,shootdowns,"
            "h2d_busy,untouch_0_3,untouch_4_7,untouch_8_11,untouch_12_15,"
            "untouch_16\n"
            "0,0,20,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n");
}

TEST(IntervalMetrics, JsonlRowShape) {
  IntervalMetricsSink sink;
  sink.emit({10, EventType::kEvictionChosen, 7, 16, 16});
  sink.emit({20, EventType::kIntervalBoundary, 1, 64});
  std::ostringstream os;
  sink.write_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"interval\":0,\"start\":0,\"end\":20,\"faults\":0,\"coalesced\":0,"
            "\"migrations\":0,\"pages_migrated\":0,\"chunks_evicted\":1,"
            "\"pages_evicted\":16,\"wrong_evictions\":0,\"pre_evict_rounds\":0,"
            "\"pattern_hits\":0,\"pattern_misses\":0,\"pattern_deletions\":0,"
            "\"shootdowns\":0,\"h2d_busy\":0,\"untouch_hist\":[0,0,0,0,1]}\n");
}

}  // namespace
}  // namespace uvmsim
