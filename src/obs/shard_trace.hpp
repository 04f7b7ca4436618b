// Trace fan-out for every system, with per-shard buffering for the sharded
// engine (docs/performance.md).
//
// Under --engine sharded, recorders on different shards emit concurrently,
// so they cannot share the caller's sinks directly. Instead each shard's
// recorder writes into a private BufferSink (append-only, touched only by
// the worker executing that shard), and after the run the buffers are
// merged into the real sinks in (cycle, shard, emission-index) order — the
// same deterministic total order the engine uses for messages, so two
// sharded runs produce byte-identical JSONL regardless of thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace uvmsim {

/// Unbounded in-memory sink: the per-shard staging buffer. Events arrive in
/// the shard's execution order, so `events()` is sorted by `t` already.
class BufferSink final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override { events_.push_back(e); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// A system's trace fan-out: every sink the caller adds reaches every
/// recorder the system registered. Unstaged (one shard), sinks attach to the
/// recorders directly. Staged (sharded), each recorder, registered in shard
/// order, writes into its own BufferSink, created with the first sink so
/// sink-less runs record nothing, and finish() merges the buffers into the
/// caller's sinks.
class TraceFanout {
 public:
  explicit TraceFanout(bool staged) : staged_(staged) {}

  TraceFanout(const TraceFanout&) = delete;
  TraceFanout& operator=(const TraceFanout&) = delete;

  void add_recorder(FlightRecorder& rec) { recorders_.push_back(&rec); }

  void add_sink(TraceSink* sink) {
    sinks_.push_back(sink);
    if (!staged_) {
      for (FlightRecorder* rec : recorders_) rec->add_sink(sink);
      return;
    }
    if (!buffers_.empty()) return;
    for (FlightRecorder* rec : recorders_) {
      buffers_.push_back(std::make_unique<BufferSink>());
      rec->add_sink(buffers_.back().get());
    }
  }

  [[nodiscard]] u64 events_recorded() const noexcept {
    u64 n = 0;
    for (const FlightRecorder* rec : recorders_) n += rec->events_recorded();
    return n;
  }

  /// After a run that ended at cycle `end`: merge the staged buffers into
  /// the sinks by (t, shard, index), then finish each sink once. Each
  /// buffer is time-sorted and its contents are thread-count-invariant (the
  /// engine guarantees per-shard execution order), so the merged stream is
  /// too.
  void finish(Cycle end) {
    merge();
    for (TraceSink* sink : sinks_) sink->finish(end);
  }

 private:
  void merge() {
    if (buffers_.empty()) return;
    std::vector<std::size_t> at(buffers_.size(), 0);
    while (true) {
      const TraceEvent* next = nullptr;
      std::size_t best = 0;
      for (std::size_t s = 0; s < buffers_.size(); ++s) {
        const auto& ev = buffers_[s]->events();
        // Ties keep the lower shard (scan order).
        if (at[s] < ev.size() && (next == nullptr || ev[at[s]].t < next->t)) {
          next = &ev[at[s]];
          best = s;
        }
      }
      if (next == nullptr) break;
      ++at[best];
      for (TraceSink* sink : sinks_) sink->emit(*next);
    }
    for (auto& b : buffers_) b->clear();
  }

  bool staged_;
  std::vector<FlightRecorder*> recorders_;
  std::vector<std::unique_ptr<BufferSink>> buffers_;
  std::vector<TraceSink*> sinks_;
};

}  // namespace uvmsim
