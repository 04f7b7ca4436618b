// ShardedEngine: conservative barrier-synchronised parallel execution of N
// shard EventQueues (classic bounded-lag / Chandy-Misra-style PDES).
//
// The engine advances all shards in lockstep windows. Each window:
//
//   1. (serial)   W = earliest pending cycle across every shard queue and
//                 every staged message; horizon H = W + lookahead.
//   2. (serial)   Staged messages with deliver < H are injected into their
//                 destination queues in (deliver, src, seq) order.
//   3. (parallel) Every shard executes its events with when < H. A message
//                 posted during the window has deliver >= send time +
//                 lookahead >= W + lookahead = H, so it cannot affect the
//                 window being executed — shards never need to see each
//                 other mid-window, and no rollback is ever required.
//   4. (serial)   Outboxes are drained into the staging buffer in shard-id
//                 order; counters update.
//
// Window boundaries are a pure function of simulation state, and messages
// are injected in a strict total order, so the executed event stream is
// IDENTICAL for any worker-thread count (including 1) and across reruns —
// determinism by construction, not by luck (docs/performance.md).
//
// `lookahead` is the minimum cross-shard latency of the system being
// sharded: one NVLink/PCIe hop for the fabric, the control-plane RPC
// (fault-service round trip) for the fleet. Larger lookahead = wider
// windows = fewer barriers.
//
// A 1-shard engine runs the queue directly (no windows, no threads): a
// sharded run of an uncoupled system is byte-identical to the sequential
// engine.
#pragma once

#include <atomic>
#include <barrier>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard.hpp"

namespace uvmsim {

class ShardedEngine {
 public:
  /// `threads` is the worker count: 0 = hardware_concurrency. It is always
  /// capped at the shard count; 1 runs the same window loop inline on the
  /// calling thread (identical results, no pool).
  ShardedEngine(u32 shards, Cycle lookahead, u32 threads);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] u32 num_shards() const noexcept {
    return static_cast<u32>(shards_.size());
  }
  /// Resolved worker count (after the hardware/shard-count cap).
  [[nodiscard]] u32 threads() const noexcept { return threads_; }
  [[nodiscard]] Cycle lookahead() const noexcept { return lookahead_; }

  [[nodiscard]] EventQueue& queue(u32 shard) noexcept {
    return shards_[shard]->queue;
  }
  [[nodiscard]] const EventQueue& queue(u32 shard) const noexcept {
    return shards_[shard]->queue;
  }

  /// Post a message from shard `src` to shard `dst`, delivered at absolute
  /// cycle `deliver`. Must be called from `src`'s executing callback (or
  /// before run(), which stages it ahead of the first window); the
  /// lookahead contract `deliver >= now + lookahead` is asserted. `fn` runs
  /// on `dst`'s queue at `deliver`.
  void post(u32 src, u32 dst, Cycle deliver, std::function<void()> fn);

  /// Advance every shard until all queues and messages drain, or until
  /// events past `max_cycle` are all that remain (same contract as
  /// EventQueue::run: events with when <= max_cycle execute).
  void run(Cycle max_cycle = kNeverCycle);

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  /// Compute the next window and inject due messages; false = drained or
  /// everything left is past max_cycle.
  bool prepare_window(Cycle max_cycle);
  /// Execute one shard's slice of the current window.
  void run_shard_window(Shard& s);
  /// Update counters and stage the outboxes.
  void finish_window();
  /// Move every outbox into the staging buffer, in shard-id order.
  void stage_outboxes();
  void worker_loop();

  std::vector<std::unique_ptr<Shard>> shards_;
  Cycle lookahead_;
  u32 threads_;

  /// Current window's exclusive horizon (events with when < horizon_ run).
  Cycle horizon_ = 0;
  /// Messages awaiting injection, merged from outboxes each window.
  std::vector<ShardMessage> staged_;
  EngineStats stats_;

  // --- Worker pool (built only when threads_ > 1) ---------------------------
  std::vector<std::thread> workers_;
  std::unique_ptr<std::barrier<>> window_start_;
  std::unique_ptr<std::barrier<>> window_end_;
  std::atomic<u32> next_shard_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace uvmsim
