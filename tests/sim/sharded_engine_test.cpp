// ShardedEngine unit tests: window/lookahead mechanics, message ordering,
// determinism across worker-thread counts, and the single-shard
// pass-through (sim/sharded_engine.hpp).
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace uvmsim {
namespace {

TEST(ShardedEngine, SingleShardIsSequentialPassThrough) {
  ShardedEngine eng(1, /*lookahead=*/100, /*threads=*/4);
  EXPECT_EQ(eng.num_shards(), 1u);
  std::vector<int> order;
  eng.queue(0).schedule_at(10, [&] { order.push_back(2); });
  eng.queue(0).schedule_at(5, [&] { order.push_back(1); });
  eng.queue(0).schedule_at(10, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.queue(0).now(), 10u);
  // No windows: the single-shard path bypasses the barrier loop entirely.
  EXPECT_EQ(eng.stats().windows, 0u);
}

TEST(ShardedEngine, ThreadCountIsCappedAtShardCount) {
  ShardedEngine eng(2, 100, 16);
  EXPECT_EQ(eng.threads(), 2u);
  ShardedEngine one(4, 100, 1);
  EXPECT_EQ(one.threads(), 1u);
}

TEST(ShardedEngine, MessageDeliversAtRequestedCycle) {
  constexpr Cycle kL = 50;
  ShardedEngine eng(2, kL, 1);
  Cycle delivered_at = 0;
  eng.queue(0).schedule_at(10, [&] {
    eng.post(0, 1, eng.queue(0).now() + kL, [&] {
      delivered_at = eng.queue(1).now();
    });
  });
  eng.run();
  EXPECT_EQ(delivered_at, 60u);
  EXPECT_EQ(eng.stats().messages, 1u);
  EXPECT_GE(eng.stats().windows, 1u);
}

// A message posted before run() is staged for the first window, so it lands
// at its own cycle and not after that window has run the clock past it.
TEST(ShardedEngine, MessagePostedBeforeRunArrivesOnTime) {
  constexpr Cycle kL = 50;
  ShardedEngine eng(2, kL, 1);
  Cycle delivered_at = 0;
  eng.post(0, 1, 60, [&] { delivered_at = eng.queue(1).now(); });
  eng.queue(0).schedule_at(200, [] {});
  eng.run();
  EXPECT_EQ(delivered_at, 60u);
  EXPECT_EQ(eng.queue(1).clamped_past(), 0u);
}

TEST(ShardedEngine, RespectsMaxCycleCap) {
  ShardedEngine eng(2, 10, 1);
  int ran = 0;
  eng.queue(0).schedule_at(5, [&] { ++ran; });
  eng.queue(1).schedule_at(100, [&] { ++ran; });
  eng.run(/*max_cycle=*/50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(eng.queue(1).pending(), 1u);
  eng.run();
  EXPECT_EQ(ran, 2);
}

/// Ping-pong between two shards: each delivery schedules a local event that
/// posts back. Exercises message -> event -> message chains across many
/// windows and verifies the exact arrival cycles.
TEST(ShardedEngine, PingPongTiming) {
  constexpr Cycle kL = 25;
  ShardedEngine eng(2, kL, 2);
  std::vector<Cycle> arrivals[2];
  // `bounce` runs on shard `s` and posts to the other shard kL later.
  std::function<void(u32)> bounce = [&](u32 s) {
    arrivals[s].push_back(eng.queue(s).now());
    if (arrivals[0].size() + arrivals[1].size() >= 8) return;
    eng.post(s, 1 - s, eng.queue(s).now() + kL, [&bounce, s] { bounce(1 - s); });
  };
  eng.queue(0).schedule_at(0, [&] { bounce(0); });
  eng.run();
  ASSERT_EQ(arrivals[0].size(), 4u);
  ASSERT_EQ(arrivals[1].size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(arrivals[0][i], 2 * i * kL);
    EXPECT_EQ(arrivals[1][i], (2 * i + 1) * kL);
  }
}

/// The determinism property the whole design rests on: the merged execution
/// trace (what ran, where, when, in which per-shard order) is identical for
/// every worker-thread count.
struct TraceEntry {
  u32 shard;
  Cycle when;
  int tag;
  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// A fixed 4-shard scenario: staggered local work, cross-shard messages in
/// both directions, same-cycle ties from different senders.
std::vector<std::vector<TraceEntry>> run_scenario(u32 threads) {
  constexpr Cycle kL = 40;
  auto eng = std::make_unique<ShardedEngine>(4, kL, threads);
  std::vector<std::vector<TraceEntry>> log(4);
  for (u32 s = 0; s < 4; ++s) {
    for (Cycle t = 0; t < 200; t += 7 + s) {
      eng->queue(s).schedule_at(t, [&log, &e = *eng, s, t] {
        log[s].push_back({s, e.queue(s).now(), static_cast<int>(t)});
        if (t % 3 == 0) {
          const u32 dst = (s + 1) % 4;
          e.post(s, dst, e.queue(s).now() + kL, [&log, &e, dst, s] {
            log[dst].push_back({dst, e.queue(dst).now(), 1000 + static_cast<int>(s)});
          });
        }
      });
    }
  }
  eng->run();
  return log;
}

TEST(ShardedEngine, DeterministicAcrossThreadCounts) {
  const auto t1 = run_scenario(1);
  const auto t2 = run_scenario(2);
  const auto t4 = run_scenario(4);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
  // And across reruns at the same thread count.
  EXPECT_EQ(t2, run_scenario(2));
}

TEST(ShardedEngine, StallAndSkewCountersMove) {
  ShardedEngine eng(2, 10, 1);
  // Only shard 0 ever has work: every window is a stall window.
  for (Cycle t = 0; t < 100; t += 20)
    eng.queue(0).schedule_at(t, [] {});
  eng.run();
  EXPECT_GE(eng.stats().windows, 1u);
  EXPECT_EQ(eng.stats().stall_windows, eng.stats().windows);
}

}  // namespace
}  // namespace uvmsim
