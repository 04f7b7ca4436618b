// TraceSink: where flight-recorder events go.
//
//   RingSink  — fixed-capacity in-memory ring; the cheap always-on flight
//               recorder proper. Overwrites the oldest event when full and
//               counts what it dropped, so a post-mortem can read the tail
//               of history without the run paying for unbounded storage.
//   JsonlSink — streams one JSON object per line (schema in
//               docs/observability.md); deterministic byte output. Its
//               event-type mask (--trace-events) filters the file alone.
//
// Sinks are non-owning observers wired into a FlightRecorder; they must not
// mutate simulation state.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace uvmsim {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& e) = 0;
  /// The run has ended at cycle `end`, the furthest shard clock (a queue
  /// that drained under a finite max_cycles stands at the cap): close what
  /// is open, flush streams. Systems call it once on each sink added
  /// through add_sink.
  virtual void finish(Cycle /*end*/) {}
};

class RingSink final : public TraceSink {
 public:
  explicit RingSink(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
    ring_.reserve(capacity_);
  }

  void emit(const TraceEvent& e) override {
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
    ++total_;
  }

  /// Events in arrival order, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] u64 total() const noexcept { return total_; }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< index of the oldest event once the ring is full
  u64 total_ = 0;
  u64 dropped_ = 0;
};

class JsonlSink final : public TraceSink {
 public:
  /// Writes the schema preamble line, then one line per event whose type
  /// is in `event_mask` (parse_event_mask).
  explicit JsonlSink(std::ostream& os, u32 event_mask = kAllEventsMask);

  void emit(const TraceEvent& e) override;
  void finish(Cycle end) override;

  [[nodiscard]] u64 lines_written() const noexcept { return lines_; }

 private:
  std::ostream& os_;
  u32 mask_;
  u64 lines_ = 0;
};

/// One event as a JSONL line (no trailing newline), e.g.
/// {"t":123,"ev":"fault_raised","page":42,"chunk":2}
[[nodiscard]] std::string to_jsonl(const TraceEvent& e);

/// The schema preamble line JsonlSink writes first.
[[nodiscard]] std::string jsonl_header();

/// Parse a --trace-events value: "all" or a comma-separated list of event
/// names (see to_string(EventType)). Returns the bitmask, or nullopt when a
/// name is unknown.
[[nodiscard]] std::optional<u32> parse_event_mask(std::string_view spec);

/// Index of the first position where two event streams diverge (length
/// differences count); nullopt when identical. The determinism checker:
/// record a run into a RingSink, re-run, diff.
[[nodiscard]] std::optional<std::size_t> first_divergence(
    const std::vector<TraceEvent>& a, const std::vector<TraceEvent>& b);

}  // namespace uvmsim
