// Per-interval metrics, derived entirely from the event stream: the sink
// folds flight-recorder events into one row per chain interval (the paper's
// 64-migrated-pages clock) — fault arrivals, migration/eviction volume, the
// untouch-level histogram of evicted chunks, pattern-buffer behaviour, and
// H2D (PCIe) occupancy. Rows export as CSV or JSONL for timeline plots.
//
// Because it is just another TraceSink, any consumer that can see the event
// stream (live recorder, or a replayed RingSink capture) can rebuild the
// same table — no second instrumentation path to drift out of sync.
#pragma once

#include <array>
#include <iosfwd>
#include <vector>

#include "obs/trace_sink.hpp"

namespace uvmsim {

/// Histogram bucket count for evicted-chunk untouch levels [0, 16]:
/// 0-3, 4-7, 8-11, 12-15, 16.
inline constexpr u32 kUntouchBuckets = 5;

[[nodiscard]] constexpr u32 untouch_hist_bucket(u64 untouch) noexcept {
  return untouch >= kChunkPages ? kUntouchBuckets - 1
                                : static_cast<u32>(untouch / 4);
}

struct IntervalRow {
  u64 interval = 0;        ///< index of the interval this row covers
  Cycle start = 0;         ///< first cycle attributed to the interval
  Cycle end = 0;           ///< cycle of the closing boundary (or finalize)
  u64 faults = 0;          ///< distinct far faults raised
  u64 coalesced = 0;       ///< faults absorbed into pending/inflight work
  u64 migrations = 0;      ///< driver migration operations planned
  u64 pages_migrated = 0;  ///< pages moved host -> device
  u64 chunks_evicted = 0;
  u64 pages_evicted = 0;   ///< pages written back device -> host
  u64 wrong_evictions = 0;
  u64 pre_evict_rounds = 0;
  u64 pattern_hits = 0;
  u64 pattern_misses = 0;
  u64 pattern_deletions = 0;
  u64 shootdowns = 0;
  Cycle h2d_busy = 0;      ///< PCIe H2D cycles reserved by this interval's plans
  std::array<u64, kUntouchBuckets> untouch_hist{};

  [[nodiscard]] Cycle span() const noexcept { return end > start ? end - start : 0; }
  /// H2D occupancy as a fraction of the interval's wall-clock span. Can
  /// exceed 1 when plans issued in this interval keep the link busy past
  /// the closing boundary.
  [[nodiscard]] double h2d_occupancy() const noexcept {
    const Cycle s = span();
    return s == 0 ? 0.0 : static_cast<double>(h2d_busy) / static_cast<double>(s);
  }
};

class IntervalMetricsSink final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override;

  /// Close the in-progress row at the run's last cycle (idempotent). A
  /// system calls it after the run on the sinks added through add_sink.
  void finish(Cycle end) override;

  [[nodiscard]] const std::vector<IntervalRow>& rows() const noexcept { return rows_; }

  void write_csv(std::ostream& os) const;
  void write_jsonl(std::ostream& os) const;

  /// The CSV column header, exposed for golden tests.
  [[nodiscard]] static std::string csv_header();

 private:
  void close_row(u64 next_interval, Cycle at);

  IntervalRow cur_{};
  std::vector<IntervalRow> rows_;
  bool cur_dirty_ = false;  ///< events landed in cur_ since it opened
};

}  // namespace uvmsim
