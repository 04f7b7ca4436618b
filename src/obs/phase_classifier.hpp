// Online access-pattern phase classifier (docs/policies.md).
//
// A TraceSink that watches the flight-recorder event stream — faults,
// eviction outcomes, pattern-buffer hits/misses — and decides which of the
// six Table II access-pattern types the workload is currently in. Windows
// of N faults are reduced to four features:
//
//   refault rate       faults landing on recently evicted chunks / faults
//                      (cyclic reuse larger than memory = thrashing family)
//   mean untouch       untouch level of the window's evicted chunks
//                      (sparse chunk use = strided / region-moving family)
//   evictions/fault    memory pressure (0 = warmup, no signal)
//   sequential frac    faults whose chunk is the previous fault's chunk or
//                      its successor (streaming advances monotonically)
//
// plus the pattern buffer's hit rate when one is live. A decision-tree maps
// the features to a phase; hysteresis (K consecutive agreeing windows and a
// minimum dwell after each switch) keeps desynchronised-SM thrashing from
// oscillating the consumer. The classifier is a pure, deterministic
// function of the event stream: two sinks fed the same recorder reach
// identical decisions at identical events, which is how the adaptive
// eviction policy and the adaptive prefetcher stay in lockstep without
// coupling (policy/adaptive.hpp, prefetch/adaptive.hpp).
#pragma once

#include <deque>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace uvmsim {

/// PhaseClassifier tuning. Namespace-scope (not nested) so the classifier's
/// own constructor can default-construct it in-class.
struct PhaseClassifierConfig {
  u32 window_faults = 256;        ///< faults per classification window
  u32 confirm_windows = 2;        ///< agreeing windows before a switch
  u32 min_dwell_windows = 3;      ///< windows between switches (hysteresis)
  std::size_t refault_history = 4096;  ///< recently evicted chunks remembered
  /// Phase assumed before the first confirmed classification. The default
  /// is the strided/repetitive type, which consumers map to the CPPE
  /// configuration — the strongest static all-rounder.
  PatternType initial = PatternType::kMostlyRepetitive;
};

class PhaseClassifier final : public TraceSink {
 public:
  using Config = PhaseClassifierConfig;

  /// One reduced window, exposed for tests and the ablation bench.
  struct Features {
    u64 faults = 0;
    u64 evictions = 0;
    double refault_rate = 0.0;    ///< refaults / faults
    double evict_per_fault = 0.0; ///< evictions / faults
    double mean_untouch = 0.0;    ///< untouch level per eviction, 0..16
    double seq_frac = 0.0;        ///< chunk-sequential fault fraction
    u64 pattern_lookups = 0;      ///< hits + misses (0 = no live buffer)
    double hit_rate = 0.0;        ///< hits / lookups
  };

  struct PhaseChange {
    Cycle at = 0;          ///< event time of the confirming window's close
    u64 at_fault = 0;      ///< faults seen when the switch was confirmed
    PatternType phase = PatternType::kStreaming;
  };

  /// One closed window: its reduced features and what the tree said before
  /// hysteresis. One entry per window_faults faults — small even for long
  /// runs, and the raw material for threshold tuning and tests.
  struct Window {
    Cycle at = 0;
    Features features;
    PatternType candidate = PatternType::kStreaming;
  };

  explicit PhaseClassifier(Config cfg = Config()) : cfg_(cfg), phase_(cfg.initial) {}

  // --- TraceSink -------------------------------------------------------------
  void emit(const TraceEvent& e) override {
    switch (e.type) {
      case EventType::kFaultRaised:
        on_fault(e.t, /*chunk=*/e.b);
        break;
      case EventType::kEvictionChosen:
        on_eviction(/*chunk=*/e.a, /*untouch=*/e.b);
        break;
      case EventType::kPatternHit:
        ++win_hits_;
        break;
      case EventType::kPatternMiss:
        ++win_misses_;
        break;
      default:
        break;  // everything else carries no phase signal
    }
  }

  // --- Consumers -------------------------------------------------------------
  [[nodiscard]] PatternType phase() const noexcept { return phase_; }
  /// Confirmed phase switches so far. Consumers cache this and reconcile
  /// their active strategy when it moves (a cheap generation counter).
  [[nodiscard]] u64 decisions() const noexcept { return history_.size(); }
  [[nodiscard]] const std::vector<PhaseChange>& history() const noexcept {
    return history_;
  }
  [[nodiscard]] u64 faults_seen() const noexcept { return faults_seen_; }
  [[nodiscard]] u64 windows_classified() const noexcept { return windows_; }
  [[nodiscard]] const Features& last_features() const noexcept { return last_; }
  [[nodiscard]] const std::vector<Window>& window_log() const noexcept {
    return window_log_;
  }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// The decision tree, exposed for unit tests. A window with no evictions
  /// carries no oversubscription signal and keeps the current phase.
  [[nodiscard]] PatternType classify(const Features& f) const {
    if (f.evictions == 0) return phase_;
    const bool sparse = f.mean_untouch >= kSparseUntouch;
    if (f.refault_rate >= kHeavyRefault) {
      // Cyclic reuse of a working set larger than memory.
      if (sparse) return PatternType::kMostlyRepetitive;  // strided reuse
      if (f.mean_untouch >= kMixedUntouch)
        return PatternType::kRepetitiveThrashing;  // dense hot set + sparse cold
      return PatternType::kThrashing;
    }
    if (f.refault_rate >= kLightRefault) {
      if (sparse) {
        // Stable sparse reuse (fixed strides) predicts well; a sliding
        // sparse region does not — the pattern buffer's own hit rate is
        // the discriminator when one is live.
        if (f.pattern_lookups >= kMinLookups && f.hit_rate < kLowHitRate)
          return PatternType::kRegionMoving;
        return PatternType::kMostlyRepetitive;
      }
      return PatternType::kPartlyRepetitive;
    }
    // Little reuse of evicted data: forward progress.
    if (sparse) return PatternType::kRegionMoving;
    if (f.seq_frac >= kSeqFrac) return PatternType::kStreaming;
    return PatternType::kPartlyRepetitive;
  }

 private:
  // Decision thresholds (fractions of a window; untouch is 0..16 pages).
  static constexpr double kHeavyRefault = 0.50;
  static constexpr double kLightRefault = 0.15;
  // Sparse cutoff sits below the half-chunk mark: random visits at ~45%
  // coverage (Type VI) leave a *mean* untouch of ~6.5, while dense families
  // leave ~0.
  static constexpr double kSparseUntouch = 6.0;
  static constexpr double kMixedUntouch = 3.0;
  static constexpr double kSeqFrac = 0.40;
  static constexpr double kLowHitRate = 0.50;
  static constexpr u64 kMinLookups = 8;

  void on_fault(Cycle t, ChunkId chunk) {
    ++faults_seen_;
    ++win_faults_;
    if (have_last_chunk_) {
      const bool seq = chunk == last_chunk_ || chunk == last_chunk_ + 1;
      if (seq) ++win_seq_;
    }
    have_last_chunk_ = true;
    last_chunk_ = chunk;
    // Membership, not consumption: every fault on a remembered-evicted chunk
    // counts. A chunk migration costs ~kChunkPages faults, so consuming the
    // entry on the first one would divide thrashing's refault rate by 16 and
    // make cyclic reuse look like forward progress. Entries only age out of
    // the FIFO.
    if (evicted_lookup_.find(chunk) != nullptr) ++win_refaults_;
    if (win_faults_ >= cfg_.window_faults) close_window(t);
  }

  void on_eviction(ChunkId chunk, u64 untouch) {
    ++win_evictions_;
    win_untouch_sum_ += untouch;
    evicted_fifo_.push_back(chunk);
    ++evicted_lookup_[chunk];
    while (evicted_fifo_.size() > cfg_.refault_history) {
      if (u32* n = evicted_lookup_.find(evicted_fifo_.front()); n != nullptr)
        if (--*n == 0) evicted_lookup_.erase(evicted_fifo_.front());
      evicted_fifo_.pop_front();
    }
  }

  void close_window(Cycle t) {
    Features f;
    f.faults = win_faults_;
    f.evictions = win_evictions_;
    const auto faults = static_cast<double>(win_faults_);
    f.refault_rate = static_cast<double>(win_refaults_) / faults;
    f.evict_per_fault = static_cast<double>(win_evictions_) / faults;
    f.mean_untouch =
        win_evictions_ == 0
            ? 0.0
            : static_cast<double>(win_untouch_sum_) / static_cast<double>(win_evictions_);
    f.seq_frac = static_cast<double>(win_seq_) / faults;
    f.pattern_lookups = win_hits_ + win_misses_;
    f.hit_rate = f.pattern_lookups == 0
                     ? 0.0
                     : static_cast<double>(win_hits_) /
                           static_cast<double>(f.pattern_lookups);
    last_ = f;
    ++windows_;
    ++windows_since_switch_;

    const PatternType candidate = classify(f);
    window_log_.push_back({t, f, candidate});
    if (candidate == phase_) {
      pending_streak_ = 0;
    } else {
      if (candidate == pending_) {
        ++pending_streak_;
      } else {
        pending_ = candidate;
        pending_streak_ = 1;
      }
      if (pending_streak_ >= cfg_.confirm_windows &&
          windows_since_switch_ >= cfg_.min_dwell_windows) {
        phase_ = candidate;
        pending_streak_ = 0;
        windows_since_switch_ = 0;
        history_.push_back({t, faults_seen_, candidate});
      }
    }

    win_faults_ = win_refaults_ = win_seq_ = 0;
    win_evictions_ = 0;
    win_untouch_sum_ = 0;
    win_hits_ = win_misses_ = 0;
  }

  Config cfg_;
  PatternType phase_;
  PatternType pending_ = PatternType::kStreaming;
  u32 pending_streak_ = 0;
  u32 windows_since_switch_ = 0;

  // Current-window accumulators.
  u64 win_faults_ = 0, win_refaults_ = 0, win_seq_ = 0;
  u64 win_evictions_ = 0, win_untouch_sum_ = 0;
  u64 win_hits_ = 0, win_misses_ = 0;
  bool have_last_chunk_ = false;
  ChunkId last_chunk_ = 0;

  // Recently evicted chunks: FIFO + count map (multiset semantics, as a
  // chunk can be evicted, refetched, and evicted again while ageing out).
  std::deque<ChunkId> evicted_fifo_;
  FlatMap<ChunkId, u32> evicted_lookup_;

  Features last_;
  std::vector<Window> window_log_;
  u64 faults_seen_ = 0;
  u64 windows_ = 0;
  std::vector<PhaseChange> history_;
};

}  // namespace uvmsim
