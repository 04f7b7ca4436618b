// Phase-adaptive prefetching (docs/policies.md).
//
// The prefetch-side counterpart of policy/adaptive.hpp: a composite that
// delegates plan() to one of three inner prefetchers and switches at the
// phase boundaries detected by the PhaseClassifier of the driver's flight
// recorder. Phase -> strategy:
//
//   locality   Streaming, Partly Repetitive — dense forward progress, the
//              whole faulting chunk is about to be consumed;
//   tree       Region Moving — faults cluster in a sliding 2 MB region, the
//              density-gated subtree climb tracks it;
//   pattern    Mostly Repetitive, Thrashing, Repetitive-Thrashing — evicted
//              data returns, so last-round touch patterns predict (CPPE
//              §IV-C).
//
// The classifier is the recorder's one (FlightRecorder::phases), so an
// adaptive eviction policy on the same device reads the very same phases,
// and neither side knows the other: either still works when paired with a
// static partner.
//
// Eviction notifications fan out to ALL inner prefetchers: the pattern
// buffer keeps learning while locality/tree are active (recording is how it
// learns; only plan() consumes), so a switch into the pattern phase starts
// with a warm buffer instead of a cold one.
#pragma once

#include <memory>

#include "common/config.hpp"
#include "obs/phase_classifier.hpp"
#include "prefetch/pattern_aware.hpp"
#include "prefetch/tree_neighborhood.hpp"

namespace uvmsim {

class AdaptivePrefetcher final : public Prefetcher {
 public:
  explicit AdaptivePrefetcher(const PolicyConfig& cfg)
      : pattern_(cfg), mode_(mode_for(PhaseClassifierConfig{}.initial)) {}

  [[nodiscard]] std::vector<PageId> plan(PageId faulted,
                                         const ResidencyView& view) override {
    reconcile();
    return active().plan(faulted, view);
  }

  void on_chunk_evicted(ChunkId chunk, TouchBits touched) override {
    reconcile();
    locality_.on_chunk_evicted(chunk, touched);
    tree_.on_chunk_evicted(chunk, touched);
    pattern_.on_chunk_evicted(chunk, touched);
  }

  void forget_range(PageId base, u64 pages) override {
    locality_.forget_range(base, pages);
    tree_.forget_range(base, pages);
    pattern_.forget_range(base, pages);
  }

  [[nodiscard]] std::string name() const override { return "adaptive"; }

  void set_recorder(FlightRecorder* rec) override {
    Prefetcher::set_recorder(rec);
    locality_.set_recorder(rec);
    tree_.set_recorder(rec);
    pattern_.set_recorder(rec);
    phases_ = rec != nullptr ? &rec->phases() : nullptr;
  }

  /// Phase -> inner strategy, exposed for tests/bench.
  enum class Mode : u8 { kLocality, kTree, kPattern };
  [[nodiscard]] static Mode mode_for(PatternType p) noexcept {
    switch (p) {
      case PatternType::kStreaming:
      case PatternType::kPartlyRepetitive:
        return Mode::kLocality;
      case PatternType::kRegionMoving:
        return Mode::kTree;
      case PatternType::kMostlyRepetitive:
      case PatternType::kThrashing:
      case PatternType::kRepetitiveThrashing:
        return Mode::kPattern;
    }
    return Mode::kPattern;
  }

  // --- Introspection (abl_adaptive, RunResult) -------------------------------
  /// The recorder's classifier; only after set_recorder() with a recorder.
  [[nodiscard]] const PhaseClassifier& classifier() const noexcept {
    return *phases_;
  }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] u64 strategy_switches() const noexcept { return switches_; }
  /// The always-learning inner pattern buffer (for §VI-C style stats).
  [[nodiscard]] const PatternAwarePrefetcher& inner_pattern() const noexcept {
    return pattern_;
  }

 private:
  /// Without a recorder there are no phases, and the mode stays.
  void reconcile() {
    if (phases_ == nullptr || phases_->decisions() == seen_decisions_) return;
    seen_decisions_ = phases_->decisions();
    const Mode want = mode_for(phases_->phase());
    if (want == mode_) return;
    mode_ = want;
    ++switches_;
  }

  [[nodiscard]] Prefetcher& active() noexcept {
    switch (mode_) {
      case Mode::kLocality: return locality_;
      case Mode::kTree: return tree_;
      case Mode::kPattern: return pattern_;
    }
    return pattern_;
  }

  const PhaseClassifier* phases_ = nullptr;  ///< the recorder's, if any
  LocalityPrefetcher locality_;
  TreeNeighborhoodPrefetcher tree_;
  PatternAwarePrefetcher pattern_;
  Mode mode_;  ///< derived from the classifier's initial phase
  u64 seen_decisions_ = 0;
  u64 switches_ = 0;
};

}  // namespace uvmsim
