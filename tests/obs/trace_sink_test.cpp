// Flight-recorder substrate: sinks, the JSONL schema (golden strings), the
// event filter, and the determinism diff helper.
#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/flight_recorder.hpp"

namespace uvmsim {
namespace {

TEST(TraceEvent, NamesAreStableAndUnique) {
  for (u32 i = 0; i < kNumEventTypes; ++i) {
    const auto t = static_cast<EventType>(i);
    EXPECT_NE(to_string(t), "?");
    for (u32 j = i + 1; j < kNumEventTypes; ++j)
      EXPECT_NE(to_string(t), to_string(static_cast<EventType>(j)));
  }
}

// Golden schema test: these exact strings are the v1 on-disk format. If one
// of these expectations fails, bump kTraceSchemaVersion and update
// docs/observability.md — do not silently change the framing.
TEST(Jsonl, GoldenEventLines) {
  EXPECT_EQ(jsonl_header(), "{\"schema\":\"uvmsim-trace\",\"v\":1}");
  EXPECT_EQ(to_jsonl({290, EventType::kFaultRaised, 42, 2}),
            "{\"t\":290,\"ev\":\"fault_raised\",\"page\":42,\"chunk\":2}");
  EXPECT_EQ(to_jsonl({290, EventType::kFaultCoalesced, 5, 1}),
            "{\"t\":290,\"ev\":\"fault_coalesced\",\"page\":5,\"stage\":1}");
  EXPECT_EQ(to_jsonl({300, EventType::kMigrationPlanned, 2, 16, 5728}),
            "{\"t\":300,\"ev\":\"migration_planned\",\"page\":2,\"pages\":16,"
            "\"busy\":5728}");
  EXPECT_EQ(to_jsonl({1000, EventType::kEvictionChosen, 7, 9, 16}),
            "{\"t\":1000,\"ev\":\"eviction_chosen\",\"chunk\":7,\"untouch\":9,"
            "\"pages\":16}");
  EXPECT_EQ(to_jsonl({1, EventType::kWrongEvictionDetected, 7, 3}),
            "{\"t\":1,\"ev\":\"wrong_eviction_detected\",\"chunk\":7,\"total\":3}");
  EXPECT_EQ(to_jsonl({2, EventType::kPatternHit, 4, 8, 8}),
            "{\"t\":2,\"ev\":\"pattern_hit\",\"chunk\":4,\"pages\":8,\"popcount\":8}");
  EXPECT_EQ(to_jsonl({3, EventType::kPatternMiss, 4, 1}),
            "{\"t\":3,\"ev\":\"pattern_miss\",\"chunk\":4,\"first\":1}");
  EXPECT_EQ(to_jsonl({4, EventType::kPatternDeleted, 4,
                      static_cast<u64>(PatternDeleteReason::kCapacityReplaced)}),
            "{\"t\":4,\"ev\":\"pattern_deleted\",\"chunk\":4,\"reason\":3}");
  EXPECT_EQ(to_jsonl({5, EventType::kIntervalBoundary, 2, 128}),
            "{\"t\":5,\"ev\":\"interval_boundary\",\"interval\":2,"
            "\"pages_migrated\":128}");
  EXPECT_EQ(to_jsonl({6, EventType::kPreEvictionTriggered, 3, 16}),
            "{\"t\":6,\"ev\":\"pre_eviction_triggered\",\"free_frames\":3,"
            "\"watermark\":16}");
  EXPECT_EQ(to_jsonl({7, EventType::kShootdownIssued, 17, 9}),
            "{\"t\":7,\"ev\":\"shootdown_issued\",\"page\":17,\"frame\":9}");
}

TEST(Jsonl, SinkWritesHeaderThenLines) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.emit({10, EventType::kFaultRaised, 1, 0});
  sink.emit({20, EventType::kShootdownIssued, 1, 5});
  EXPECT_EQ(sink.lines_written(), 2u);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"uvmsim-trace\",\"v\":1}\n"
            "{\"t\":10,\"ev\":\"fault_raised\",\"page\":1,\"chunk\":0}\n"
            "{\"t\":20,\"ev\":\"shootdown_issued\",\"page\":1,\"frame\":5}\n");
}

TEST(RingSink, KeepsOrderBelowCapacity) {
  RingSink ring(8);
  for (u64 i = 0; i < 5; ++i) ring.emit({i, EventType::kFaultRaised, i});
  const auto ev = ring.events();
  ASSERT_EQ(ev.size(), 5u);
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(ev[i].a, i);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.total(), 5u);
}

TEST(RingSink, OverwritesOldestWhenFull) {
  RingSink ring(4);
  for (u64 i = 0; i < 10; ++i) ring.emit({i, EventType::kFaultRaised, i});
  const auto ev = ring.events();
  ASSERT_EQ(ev.size(), 4u);
  // The last four events survive, oldest first.
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(ev[i].a, 6 + i);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.total(), 10u);
}

TEST(FlightRecorder, StampsSimTimeAndFansOut) {
  EventQueue eq;
  FlightRecorder rec(eq);
  RingSink a(16), b(16);
  rec.add_sink(&a);
  rec.add_sink(&b);
  eq.schedule_in(123, [&] { rec.record(EventType::kFaultRaised, 9, 0); });
  eq.run();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.events()[0].t, 123u);
  EXPECT_EQ(a.events()[0].a, 9u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(rec.events_recorded(), 1u);
}

// --trace-events filters the JSONL file alone: the recorder still hands
// every event to every other sink.
TEST(JsonlSink, MaskFiltersEventTypes) {
  EventQueue eq;
  FlightRecorder rec(eq);
  std::ostringstream os;
  JsonlSink jsonl(os, event_bit(EventType::kEvictionChosen));
  RingSink ring(16);
  rec.add_sink(&jsonl);
  rec.add_sink(&ring);
  rec.record(EventType::kFaultRaised, 1);
  rec.record(EventType::kEvictionChosen, 2);
  rec.record(EventType::kShootdownIssued, 3);
  EXPECT_EQ(jsonl.lines_written(), 1u);
  EXPECT_EQ(os.str(), jsonl_header() + "\n" +
                          to_jsonl({0, EventType::kEvictionChosen, 2}) + "\n");
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(rec.events_recorded(), 3u);
}

TEST(FlightRecorder, NoSinksShortCircuits) {
  EventQueue eq;
  FlightRecorder rec(eq);
  EXPECT_FALSE(rec.active());
  rec.record(EventType::kFaultRaised, 1);
  EXPECT_EQ(rec.events_recorded(), 0u);
  // Null-tolerant helper: no recorder attached at all.
  record_event(nullptr, EventType::kFaultRaised, 1);
}

TEST(ParseEventMask, AllAndLists) {
  EXPECT_EQ(parse_event_mask("all"), kAllEventsMask);
  EXPECT_EQ(parse_event_mask(""), kAllEventsMask);
  EXPECT_EQ(parse_event_mask("fault_raised"),
            event_bit(EventType::kFaultRaised));
  EXPECT_EQ(parse_event_mask("fault_raised,eviction_chosen"),
            event_bit(EventType::kFaultRaised) |
                event_bit(EventType::kEvictionChosen));
  EXPECT_EQ(parse_event_mask("no_such_event"), std::nullopt);
  EXPECT_EQ(parse_event_mask("fault_raised,bogus"), std::nullopt);
}

TEST(FirstDivergence, FindsMismatchAndLengthDifferences) {
  const std::vector<TraceEvent> a{{1, EventType::kFaultRaised, 1},
                                  {2, EventType::kFaultRaised, 2}};
  std::vector<TraceEvent> b = a;
  EXPECT_EQ(first_divergence(a, b), std::nullopt);
  b[1].a = 99;
  EXPECT_EQ(first_divergence(a, b), 1u);
  b = a;
  b.push_back({3, EventType::kFaultRaised, 3});
  EXPECT_EQ(first_divergence(a, b), 2u);
}

}  // namespace
}  // namespace uvmsim
