// Discrete-event simulation kernel.
//
// A single EventQueue drives one simulation instance. Events scheduled for
// the same cycle run in FIFO order of scheduling (stable sequence numbers),
// which keeps component interactions deterministic: execution order is a
// pure function of (when, seq), so any correct min-heap implementation —
// including this hand-rolled one — replays the exact same event stream.
//
// The kernel is allocation-free on the hot path: callbacks are
// InlineFunction (small-buffer optimised; only oversized captures allocate)
// and the heap is a reserve-ahead std::vector binary heap. Popping
// moves the root out *before* sifting, so a running callback may freely
// schedule new events — no const_cast aliasing of a live heap node.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace uvmsim {

/// "No pending event" sentinel (also the EventQueue::run default cap: run
/// to drain). A real simulation never reaches cycle 2^64-1.
inline constexpr Cycle kNeverCycle = ~Cycle{0};

class EventQueue {
 public:
  using Callback = InlineFunction<void(), kCallbackInlineBytes>;

  /// Pre-size the heap so steady-state scheduling never reallocates.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Schedule `fn` to run `delay` cycles from now.
  void schedule_in(Cycle delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Schedule `fn` at an absolute cycle. Scheduling in the past would let
  /// the event run "before" work that already happened and corrupt cycle
  /// ordering, so the guard must hold in Release builds too (assert alone
  /// compiles out under -DNDEBUG): past times are clamped to now() and
  /// counted, keeping time monotonic while leaving the bug observable.
  void schedule_at(Cycle when, Callback fn) {
    assert(when >= now_);
    if (when < now_) {
      when = now_;
      ++clamped_past_;
    }
    if (!fn.is_inline()) ++oversize_events_;
    push(Event{when, seq_++, std::move(fn)});
  }

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  /// Cycle of the earliest pending event; kNeverCycle when the queue is
  /// empty. The sharded engine's window computation peeks every shard's
  /// queue without popping (sim/sharded_engine.hpp).
  [[nodiscard]] Cycle next_when() const noexcept {
    return heap_.empty() ? kNeverCycle : heap_.front().when;
  }
  /// Events whose requested time was in the past and got clamped to now().
  /// Non-zero means a component computed a stale timestamp.
  [[nodiscard]] u64 clamped_past() const noexcept { return clamped_past_; }

  // --- Simulator-perf observability (RunResult.sim / --sim-stats) ----------
  /// Events executed so far (monotonic; == schedule count once drained).
  [[nodiscard]] u64 executed() const noexcept { return executed_; }
  /// High-water mark of pending events.
  [[nodiscard]] u64 peak_pending() const noexcept { return peak_pending_; }
  /// Current heap allocation in events.
  [[nodiscard]] std::size_t heap_capacity() const noexcept { return heap_.capacity(); }
  /// Events whose capture did not fit inline and was heap-allocated.
  [[nodiscard]] u64 oversize_events() const noexcept { return oversize_events_; }

  /// Pop and run the next event. Returns false if the queue was empty.
  bool step() {
    if (heap_.empty()) return false;
    Event ev = pop_min();
    now_ = ev.when;
    ++executed_;
    ev.fn();
    return true;
  }

  /// Run until the queue drains or `max_cycle` would be passed.
  /// Returns the number of events executed.
  ///
  /// The clock fast-forwards to `max_cycle` only when the queue drained.
  /// With events still pending just past the cap, now() stays at the last
  /// executed event — otherwise a subsequent schedule_in(d) with a small d
  /// would land *ahead* of work already committed before the cap.
  u64 run(Cycle max_cycle = ~Cycle{0}) {
    u64 executed = 0;
    while (!heap_.empty() && heap_.front().when <= max_cycle) {
      step();
      ++executed;
    }
    if (heap_.empty() && now_ < max_cycle && max_cycle != ~Cycle{0}) now_ = max_cycle;
    return executed;
  }

 private:
  struct Event {
    Cycle when = 0;
    u64 seq = 0;
    Callback fn;

    /// Strict total order: earlier cycle first, then scheduling order.
    [[nodiscard]] bool before(const Event& o) const noexcept {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };

  void push(Event ev) {
    // Hole-based sift up: one move per level instead of a three-move swap.
    heap_.emplace_back();
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!ev.before(heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(ev);
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  }

  /// Remove and return the minimum. The root is moved out before the heap
  /// is restructured, so the returned event's callback owns its storage
  /// outright — it may schedule (push) new events while running.
  Event pop_min() {
    Event min = std::move(heap_.front());
    Event last = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift `last` down from the root.
      std::size_t i = 0;
      while (true) {
        const std::size_t l = 2 * i + 1;
        if (l >= n) break;
        const std::size_t r = l + 1;
        std::size_t child = (r < n && heap_[r].before(heap_[l])) ? r : l;
        if (!heap_[child].before(last)) break;
        heap_[i] = std::move(heap_[child]);
        i = child;
      }
      heap_[i] = std::move(last);
    }
    return min;
  }

  std::vector<Event> heap_;
  Cycle now_ = 0;
  u64 seq_ = 0;
  u64 clamped_past_ = 0;
  u64 executed_ = 0;
  u64 peak_pending_ = 0;
  u64 oversize_events_ = 0;
};

}  // namespace uvmsim
